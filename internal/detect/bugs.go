package detect

import (
	"strings"

	"snowboard/internal/trace"
)

// KnownBug is one row of the paper's Table 2, keyed by the kernel functions
// involved so that detector findings can be attributed.
type KnownBug struct {
	ID       int
	Summary  string
	Versions []string // kernel versions carrying the issue
	Subsys   string
	Type     string // DR, AV, OV per Table 2
	Harmful  bool   // bold rows of Table 2 (confirmed harmful) + fixed panics
	// WriteFn/ReadFn are the kernel function names of the racing or
	// communicating sites ("" matches anything).
	WriteFn, ReadFn string
}

// Table2 is the issue catalogue, mirroring the paper's Table 2.
var Table2 = []KnownBug{
	{ID: 1, Summary: "BUG: unable to handle page fault (rhashtable rht_ptr double fetch)", Versions: []string{"5.3.10"}, Subsys: "include/linux/", Type: "DR", Harmful: true, WriteFn: "rht_assign_unlock", ReadFn: "rht_ptr"},
	{ID: 2, Summary: "EXT4-fs error: swap_inode_boot_loader: checksum invalid", Versions: []string{"5.3.10", "5.12-rc3"}, Subsys: "fs/ext4/", Type: "AV", Harmful: true, WriteFn: "swap_inode_boot_loader", ReadFn: "ext4_file_write_iter"},
	{ID: 3, Summary: "EXT4-fs error: ext4_ext_check_inode: invalid magic", Versions: []string{"5.3.10"}, Subsys: "fs/ext4/", Type: "AV", Harmful: false, WriteFn: "ext4_extent_grow", ReadFn: "ext4_ext_check_inode"},
	{ID: 4, Summary: "blk_update_request: I/O error", Versions: []string{"5.3.10"}, Subsys: "fs/", Type: "AV", Harmful: true, WriteFn: "set_blocksize", ReadFn: "blk_update_request"},
	{ID: 5, Summary: "Data race: blkdev_ioctl() / generic_fadvise()", Versions: []string{"5.3.10"}, Subsys: "block/, mm/", Type: "DR", Harmful: true, WriteFn: "set_blocksize", ReadFn: "generic_fadvise"},
	{ID: 6, Summary: "Data race: do_mpage_readpage() / set_blocksize()", Versions: []string{"5.3.10"}, Subsys: "fs/", Type: "DR", Harmful: false, WriteFn: "set_blocksize", ReadFn: "do_mpage_readpage"},
	{ID: 7, Summary: "Data race: rawv6_send_hdrinc() / __dev_set_mtu()", Versions: []string{"5.3.10"}, Subsys: "net/", Type: "DR", Harmful: true, WriteFn: "__dev_set_mtu", ReadFn: "rawv6_send_hdrinc"},
	{ID: 8, Summary: "Data race: packet_getname() / e1000_set_mac()", Versions: []string{"5.3.10"}, Subsys: "net/", Type: "DR", Harmful: true, WriteFn: "e1000_set_mac", ReadFn: "packet_getname"},
	{ID: 9, Summary: "Data race: dev_ifsioc_locked() / eth_commit_mac_addr_change()", Versions: []string{"5.3.10"}, Subsys: "net/", Type: "DR", Harmful: true, WriteFn: "eth_commit_mac_addr_change", ReadFn: "dev_ifsioc_locked"},
	{ID: 10, Summary: "Data race: fib6_get_cookie_safe() / fib6_clean_node()", Versions: []string{"5.3.10"}, Subsys: "net/", Type: "DR", Harmful: false, WriteFn: "fib6_clean_node", ReadFn: "fib6_get_cookie_safe"},
	{ID: 11, Summary: "BUG: kernel NULL pointer dereference (configfs_lookup)", Versions: []string{"5.12-rc3"}, Subsys: "fs/configfs", Type: "DR", Harmful: true, WriteFn: "configfs_detach_item", ReadFn: "configfs_lookup"},
	{ID: 12, Summary: "BUG: kernel NULL pointer dereference (l2tp tunnel register)", Versions: []string{"5.12-rc3"}, Subsys: "net/l2tp", Type: "OV", Harmful: true, WriteFn: "l2tp_tunnel_register", ReadFn: "l2tp_xmit_core"},
	{ID: 13, Summary: "Data race: cache_alloc_refill() / free_block()", Versions: []string{"5.3.10", "5.12-rc3"}, Subsys: "mm/", Type: "DR", Harmful: false, WriteFn: "cache_alloc_refill", ReadFn: ""},
	{ID: 14, Summary: "Data race: tty_port_open() / uart_do_autoconfig()", Versions: []string{"5.12-rc3"}, Subsys: "driver/tty/", Type: "DR", Harmful: true, WriteFn: "uart_do_autoconfig", ReadFn: "tty_port_open"},
	{ID: 15, Summary: "Data race: snd_ctl_elem_add()", Versions: []string{"5.12-rc3"}, Subsys: "sound/core", Type: "DR", Harmful: true, WriteFn: "snd_ctl_elem_add", ReadFn: "snd_ctl_elem_add"},
	{ID: 16, Summary: "Data race: tcp_set_default_congestion_control() / tcp_set_congestion_control()", Versions: []string{"5.12-rc3"}, Subsys: "net/ipv4", Type: "DR", Harmful: false, WriteFn: "tcp_set_default_congestion_control", ReadFn: "tcp_set_congestion_control"},
	{ID: 17, Summary: "Data race: fanout_demux_rollover() / __fanout_unlink()", Versions: []string{"5.12-rc3"}, Subsys: "net/packet", Type: "DR", Harmful: true, WriteFn: "__fanout_unlink", ReadFn: "fanout_demux_rollover"},
}

// BugByID returns the Table 2 row for id.
func BugByID(id int) (KnownBug, bool) {
	for _, b := range Table2 {
		if b.ID == id {
			return b, true
		}
	}
	return KnownBug{}, false
}

// extra write-function aliases: several distinct sites map to the same row.
var raceAliases = map[[2]string]int{
	{"free_block", "cache_alloc_refill"}:         13,
	{"cache_alloc_refill", "cache_alloc_refill"}: 13,
	{"free_block", "free_block"}:                 13,
	{"rht_assign_unlock", "ipcget"}:              1,
	{"rht_assign_unlock", "rhashtable_lookup"}:   1,
	{"rht_assign_unlock", "rht_key_hashfn"}:      1,
	// Use-after-free shadow of the lockless configfs lookup: the freed item
	// is unlinked into the allocator freelist while the stale lookup still
	// holds a reference.
	{"kfree", "config_item_get"}:                   11,
	{"configfs_detach_item", "configfs_attach"}:    11,
	{"snd_ctl_elem_remove", "snd_ctl_elem_add"}:    15,
	{"snd_ctl_elem_add", "snd_ctl_elem_remove"}:    15,
	{"snd_ctl_elem_remove", "snd_ctl_elem_remove"}: 15,
	// The post-publication sock store of l2tp_tunnel_register is itself
	// unordered with the xmit path's read: the racy shadow of issue #12.
	{"l2tp_tunnel_register", "l2tp_xmit_core"}:   12,
	{"l2tp_tunnel_register", "l2tp_tunnel_get"}:  12,
	{"l2tp_tunnel_register", "pppol2tp_sendmsg"}: 12,
	// Cross combinations of the two MAC writers and two MAC readers touch
	// the same dev_addr object; attribute by writer.
	{"e1000_set_mac", "dev_ifsioc_locked"}:           8,
	{"eth_commit_mac_addr_change", "packet_getname"}: 9,
	// The unfixed lockless configfs_lookup races with every dirent
	// mutation, not only detach.
	{"configfs_mkdir", "configfs_lookup"}: 11,
	{"configfs_rmdir", "configfs_lookup"}: 11,
	// Use-after-free shadow of the configfs lookup race: a freed item is
	// re-allocated (kzalloc memset) while the stale lookup still touches it.
	{"kzalloc", "config_item_get"}:        11,
	{"configfs_mkdir", "config_item_get"}: 11,
	// Every extent-header mutation races the lockless header check; the
	// root cause is issue #3's missing reader lock.
	{"ext4_ext_insert_extent", "ext4_ext_check_inode"}: 3,
	// The default-CA name is read by tcp_ca_find's word compare and
	// written concurrently by two default-setters: the issue #16 family.
	{"tcp_set_default_congestion_control", "tcp_ca_find"}:                        16,
	{"tcp_set_default_congestion_control", "tcp_set_default_congestion_control"}: 16,
	// submit_bio's request sizing load is the first fetch of issue #4's
	// double fetch (blk_update_request re-reads the block size).
	{"set_blocksize", "submit_bio"}: 4,
}

// ClassifyRace attributes a race report to a Table 2 row, returning the
// classified Issue.
func ClassifyRace(r RaceReport) Issue {
	wf, rf := funcOf(r.Write.Ins), funcOf(r.Read.Ins)
	is := Issue{
		Kind:     KindDataRace,
		Desc:     "Data race: " + wf + "() / " + rf + "()",
		WriteIns: r.Write.Ins,
		ReadIns:  r.Read.Ins,
	}
	for _, b := range Table2 {
		// Rows typed AV/OV also cast data-race shadows between the same
		// functions; a race report on their sites is the same root cause.
		if matchFn(b.WriteFn, wf) && matchFn(b.ReadFn, rf) {
			is.BugID, is.Harmful = b.ID, b.Harmful
			return is
		}
		// Symmetric match for same-variable races reported in either order.
		if matchFn(b.WriteFn, rf) && matchFn(b.ReadFn, wf) {
			is.BugID, is.Harmful = b.ID, b.Harmful
			return is
		}
	}
	if id, ok := raceAliases[[2]string{wf, rf}]; ok {
		b, _ := BugByID(id)
		is.BugID, is.Harmful = id, b.Harmful
		return is
	}
	if id, ok := raceAliases[[2]string{rf, wf}]; ok {
		b, _ := BugByID(id)
		is.BugID, is.Harmful = id, b.Harmful
	}
	return is
}

func matchFn(pattern, fn string) bool {
	return pattern == "" || pattern == fn
}

// classifyPanic attributes a crash to a Table 2 row using each thread's
// last recorded access, in ascending thread id: when two threads sit in
// different known-faulty functions, the lower thread decides.
func classifyPanic(is *Issue, lastAccess []trace.Ins) {
	for _, ins := range lastAccess {
		fn := funcOf(ins) // NoIns (a thread with no access) names no function
		switch {
		case strings.HasPrefix(fn, "rht_ptr"), strings.HasPrefix(fn, "ipcget"), strings.HasPrefix(fn, "rhashtable"):
			is.BugID, is.Harmful = 1, true
			return
		case strings.HasPrefix(fn, "l2tp_xmit_core"), strings.HasPrefix(fn, "pppol2tp"):
			is.BugID, is.Harmful = 12, true
			return
		case strings.HasPrefix(fn, "configfs_lookup"):
			is.BugID, is.Harmful = 11, true
			return
		}
	}
}

// classifyConsole attributes filesystem console errors.
func classifyConsole(is *Issue) {
	switch {
	case strings.Contains(is.Desc, "swap_inode_boot_loader"):
		is.BugID, is.Harmful = 2, true
	case strings.Contains(is.Desc, "ext4_ext_check_inode"):
		is.BugID, is.Harmful = 3, false
	}
}
