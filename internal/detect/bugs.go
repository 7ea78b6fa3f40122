package detect

import (
	"strings"

	"snowboard/internal/trace"
)

// KnownBug is one row of the paper's Table 2 with every rule that files a
// finding under it: the one place a finding takes its row and harmfulness
// from, through one index (ClassifyRace, CheckConsole).
type KnownBug struct {
	ID       int
	Summary  string
	Versions []string // kernel versions carrying the issue
	Subsys   string
	Type     string // DR, AV, OV per Table 2
	Harmful  bool   // bold rows of Table 2 (confirmed harmful) + fixed panics
	// WriteFn/ReadFn are the kernel functions of the racing or communicating
	// sites ("" matches anything), which triage signs the row's findings
	// with. A race between them or a pair of Races, either way round, files
	// under the row.
	WriteFn, ReadFn string
	Races           [][2]string
	Panics          []string // a panic files by the lowest thread whose last access is in one
	Console         []string // an fs or I/O error line files under the first row it holds one of
}

// Table2 is the issue catalogue, mirroring the paper's Table 2.
var Table2 = []KnownBug{
	{ID: 1, Summary: "BUG: unable to handle page fault (rhashtable rht_ptr double fetch)", Versions: []string{"5.3.10"}, Subsys: "include/linux/", Type: "DR", Harmful: true, WriteFn: "rht_assign_unlock", ReadFn: "rht_ptr",
		Races:  [][2]string{{"rht_assign_unlock", "ipcget"}, {"rht_assign_unlock", "rhashtable_lookup"}, {"rht_assign_unlock", "rht_key_hashfn"}},
		Panics: []string{"rht_ptr", "ipcget", "rhashtable_lookup", "rhashtable_insert"}},
	{ID: 2, Summary: "EXT4-fs error: swap_inode_boot_loader: checksum invalid", Versions: []string{"5.3.10", "5.12-rc3"}, Subsys: "fs/ext4/", Type: "AV", Harmful: true, WriteFn: "swap_inode_boot_loader", ReadFn: "ext4_file_write_iter", Console: []string{"swap_inode_boot_loader"}},
	{ID: 3, Summary: "EXT4-fs error: ext4_ext_check_inode: invalid magic", Versions: []string{"5.3.10"}, Subsys: "fs/ext4/", Type: "AV", Harmful: false, WriteFn: "ext4_extent_grow", ReadFn: "ext4_ext_check_inode",
		// Every extent-header mutation races the lockless header check; the
		// root cause is this issue's missing reader lock.
		Races:   [][2]string{{"ext4_ext_insert_extent", "ext4_ext_check_inode"}},
		Console: []string{"ext4_ext_check_inode"}},
	{ID: 4, Summary: "blk_update_request: I/O error", Versions: []string{"5.3.10"}, Subsys: "fs/", Type: "AV", Harmful: true, WriteFn: "set_blocksize", ReadFn: "blk_update_request",
		// submit_bio's request sizing load is the first fetch of this
		// issue's double fetch (blk_update_request re-reads the block size).
		Races:   [][2]string{{"set_blocksize", "submit_bio"}},
		Console: []string{"blk_update_request: I/O error"}},
	{ID: 5, Summary: "Data race: blkdev_ioctl() / generic_fadvise()", Versions: []string{"5.3.10"}, Subsys: "block/, mm/", Type: "DR", Harmful: true, WriteFn: "set_blocksize", ReadFn: "generic_fadvise"},
	{ID: 6, Summary: "Data race: do_mpage_readpage() / set_blocksize()", Versions: []string{"5.3.10"}, Subsys: "fs/", Type: "DR", Harmful: false, WriteFn: "set_blocksize", ReadFn: "do_mpage_readpage"},
	{ID: 7, Summary: "Data race: rawv6_send_hdrinc() / __dev_set_mtu()", Versions: []string{"5.3.10"}, Subsys: "net/", Type: "DR", Harmful: true, WriteFn: "__dev_set_mtu", ReadFn: "rawv6_send_hdrinc"},
	// Cross combinations of the two MAC writers and two MAC readers touch
	// the same dev_addr object; #8 and #9 attribute them by writer.
	{ID: 8, Summary: "Data race: packet_getname() / e1000_set_mac()", Versions: []string{"5.3.10"}, Subsys: "net/", Type: "DR", Harmful: true, WriteFn: "e1000_set_mac", ReadFn: "packet_getname", Races: [][2]string{{"e1000_set_mac", "dev_ifsioc_locked"}}},
	{ID: 9, Summary: "Data race: dev_ifsioc_locked() / eth_commit_mac_addr_change()", Versions: []string{"5.3.10"}, Subsys: "net/", Type: "DR", Harmful: true, WriteFn: "eth_commit_mac_addr_change", ReadFn: "dev_ifsioc_locked", Races: [][2]string{{"eth_commit_mac_addr_change", "packet_getname"}}},
	{ID: 10, Summary: "Data race: fib6_get_cookie_safe() / fib6_clean_node()", Versions: []string{"5.3.10"}, Subsys: "net/", Type: "DR", Harmful: false, WriteFn: "fib6_clean_node", ReadFn: "fib6_get_cookie_safe"},
	{ID: 11, Summary: "BUG: kernel NULL pointer dereference (configfs_lookup)", Versions: []string{"5.12-rc3"}, Subsys: "fs/configfs", Type: "DR", Harmful: true, WriteFn: "configfs_detach_item", ReadFn: "configfs_lookup",
		Races: [][2]string{
			// The unfixed lockless configfs_lookup races with every dirent
			// mutation, not only detach.
			{"configfs_mkdir", "configfs_lookup"}, {"configfs_rmdir", "configfs_lookup"},
			// Use-after-free shadows of the lookup race: the freed item is
			// unlinked into the allocator freelist, or re-allocated (kzalloc
			// memset), while the stale lookup still holds a reference.
			{"kfree", "config_item_get"}, {"kzalloc", "config_item_get"}, {"configfs_mkdir", "config_item_get"},
		},
		Panics: []string{"configfs_lookup"}},
	{ID: 12, Summary: "BUG: kernel NULL pointer dereference (l2tp tunnel register)", Versions: []string{"5.12-rc3"}, Subsys: "net/l2tp", Type: "OV", Harmful: true, WriteFn: "l2tp_tunnel_register", ReadFn: "l2tp_xmit_core",
		// The post-publication sock store of l2tp_tunnel_register is itself
		// unordered with the lookup and send paths' reads: the racy shadow
		// of the order violation.
		Races:  [][2]string{{"l2tp_tunnel_register", "l2tp_tunnel_get"}, {"l2tp_tunnel_register", "pppol2tp_sendmsg"}},
		Panics: []string{"l2tp_xmit_core", "pppol2tp_connect", "pppol2tp_sendmsg"}},
	{ID: 13, Summary: "Data race: cache_alloc_refill() / free_block()", Versions: []string{"5.3.10", "5.12-rc3"}, Subsys: "mm/", Type: "DR", Harmful: false, WriteFn: "cache_alloc_refill", ReadFn: "", Races: [][2]string{{"free_block", "free_block"}}},
	{ID: 14, Summary: "Data race: tty_port_open() / uart_do_autoconfig()", Versions: []string{"5.12-rc3"}, Subsys: "driver/tty/", Type: "DR", Harmful: true, WriteFn: "uart_do_autoconfig", ReadFn: "tty_port_open"},
	{ID: 15, Summary: "Data race: snd_ctl_elem_add()", Versions: []string{"5.12-rc3"}, Subsys: "sound/core", Type: "DR", Harmful: true, WriteFn: "snd_ctl_elem_add", ReadFn: "snd_ctl_elem_add", Races: [][2]string{{"snd_ctl_elem_remove", "snd_ctl_elem_add"}, {"snd_ctl_elem_remove", "snd_ctl_elem_remove"}}},
	// The default-CA name is read by tcp_ca_find's word compare and
	// written concurrently by two default-setters.
	{ID: 16, Summary: "Data race: tcp_set_default_congestion_control() / tcp_set_congestion_control()", Versions: []string{"5.12-rc3"}, Subsys: "net/ipv4", Type: "DR", Harmful: false, WriteFn: "tcp_set_default_congestion_control", ReadFn: "tcp_set_congestion_control",
		Races: [][2]string{{"tcp_set_default_congestion_control", "tcp_ca_find"}, {"tcp_set_default_congestion_control", "tcp_set_default_congestion_control"}}},
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

// raceRows and panicRows index Table2's race and panic rules, built at init:
// a race pair in both orders, and "" for what a row pairs with anything.
var raceRows, panicRows = index()

func index() (races map[[2]string]*KnownBug, panics map[string]*KnownBug) {
	races, panics = make(map[[2]string]*KnownBug), make(map[string]*KnownBug)
	for i := range Table2 {
		b := &Table2[i]
		for _, p := range append([][2]string{{b.WriteFn, b.ReadFn}}, b.Races...) {
			races[p], races[[2]string{p[1], p[0]}] = b, b
		}
		for _, fn := range b.Panics {
			panics[fn] = b
		}
	}
	return races, panics
}

// filedUnder returns is filed under row b, or is as it is when b is nil.
func (is Issue) filedUnder(b *KnownBug) Issue {
	if b != nil {
		is.BugID, is.Harmful = b.ID, b.Harmful
	}
	return is
}

// ClassifyRace attributes a race report to a Table 2 row, returning the
// classified Issue. Rows typed AV/OV also cast data-race shadows between
// their functions; a race report on their sites is the same root cause.
func ClassifyRace(r RaceReport) Issue {
	wf, rf := funcOf(r.Write.Ins), funcOf(r.Read.Ins)
	is := Issue{
		Kind:     KindDataRace,
		Desc:     "Data race: " + wf + "() / " + rf + "()",
		WriteIns: r.Write.Ins,
		ReadIns:  r.Read.Ins,
	}
	for _, k := range [...][2]string{{wf, rf}, {wf, ""}, {rf, ""}} {
		if b := raceRows[k]; b != nil {
			return is.filedUnder(b)
		}
	}
	return is
}

// panicRow is the row a panic files under by the threads' last accesses
// (NoIns names no function): the lowest thread in a Panics function decides.
func panicRow(lastAccess []trace.Ins) *KnownBug {
	for _, ins := range lastAccess {
		if b := panicRows[funcOf(ins)]; b != nil {
			return b
		}
	}
	return nil
}

// consoleRow is the first row, in table order, holding one of the line's
// Console patterns.
func consoleRow(line string) *KnownBug {
	for i := range Table2 {
		for _, pat := range Table2[i].Console {
			if strings.Contains(line, pat) {
				return &Table2[i]
			}
		}
	}
	return nil
}
