package snowboard_test

// Reproduction of every row of the paper's Table 2: for each seeded issue,
// a pair of sequential tests is constructed, profiled from the boot
// snapshot, the PMC between the relevant write and read sites is
// identified, and Algorithm 2 explores interleavings with that PMC as the
// hint until the issue surfaces. Each test also asserts the issue's
// classification (kind, harmfulness) and that it is absent from the kernel
// version that does not carry it.

import (
	"sort"
	"strings"
	"testing"

	"snowboard"
	"snowboard/internal/detect"
	"snowboard/internal/kernel"
)

// P assembles a program from calls.
func P(calls ...snowboard.Call) *snowboard.Prog { return &snowboard.Prog{Calls: calls} }

// C builds a call with constant arguments.
func C(nr int, args ...uint64) snowboard.Call {
	c := snowboard.Call{Nr: nr}
	for _, a := range args {
		c.Args = append(c.Args, snowboard.Const(a))
	}
	return c
}

// CR builds a call with mixed arguments.
func CR(nr int, args ...snowboard.Arg) snowboard.Call {
	return snowboard.Call{Nr: nr, Args: args}
}

func sock(domain, typ, proto uint64) snowboard.Call {
	return C(kernel.SysSocketNr, domain, typ, proto)
}

// hintSpec selects the PMC to use as the scheduling hint by write/read
// instruction-name prefixes (empty matches anything).
type hintSpec struct{ writePfx, readPfx string }

// table2Case describes one Table 2 reproduction.
type table2Case struct {
	id       int
	version  snowboard.Version
	writer   *snowboard.Prog
	reader   *snowboard.Prog
	hint     hintSpec
	wantKind []detect.IssueKind // acceptable manifestations
	trials   int
}

func findHint(t testing.TB, set *snowboard.PMCSet, spec hintSpec) *snowboard.PMC {
	t.Helper()
	var matches []snowboard.PMC
	for key := range set.Entries {
		if spec.writePfx != "" && !strings.HasPrefix(key.Write.Ins.Name(), spec.writePfx) {
			continue
		}
		if spec.readPfx != "" && !strings.HasPrefix(key.Read.Ins.Name(), spec.readPfx) {
			continue
		}
		matches = append(matches, key)
	}
	if len(matches) == 0 {
		t.Fatalf("no PMC matching write=%q read=%q identified", spec.writePfx, spec.readPfx)
	}
	// Map iteration is random; order deterministically, preferring
	// nullification channels (write value 0), the S-CH-NULL intuition.
	sort.Slice(matches, func(i, j int) bool {
		a, b := matches[i], matches[j]
		if (a.Write.Val == 0) != (b.Write.Val == 0) {
			return a.Write.Val == 0
		}
		if a.Write.Ins != b.Write.Ins {
			return a.Write.Ins < b.Write.Ins
		}
		if a.Write.Addr != b.Write.Addr {
			return a.Write.Addr < b.Write.Addr
		}
		if a.Read.Ins != b.Read.Ins {
			return a.Read.Ins < b.Read.Ins
		}
		if a.Read.Addr != b.Read.Addr {
			return a.Read.Addr < b.Read.Addr
		}
		if a.Write.Val != b.Write.Val {
			return a.Write.Val < b.Write.Val
		}
		return a.Read.Val < b.Read.Val
	})
	return &matches[0]
}

func exploreCase(t *testing.T, tc table2Case) *snowboard.ExploreOutcome {
	t.Helper()
	env := snowboard.NewEnv(tc.version)
	defer env.Close()
	var profiles []snowboard.Profile
	for i, p := range []*snowboard.Prog{tc.writer, tc.reader} {
		accs, df, res := env.Profile(p)
		if res.Crashed() {
			t.Fatalf("sequential profiling of test %d crashed: %v", i, res.Faults)
		}
		profiles = append(profiles, snowboard.Profile{TestID: i, Accesses: accs, DFLeader: df})
	}
	set := snowboard.Identify(profiles)
	hint := findHint(t, set, tc.hint)
	trials := tc.trials
	if trials == 0 {
		trials = 192
	}
	x := &snowboard.Explorer{
		Env:       env,
		Trials:    trials,
		Seed:      1,
		Mode:      snowboard.ModeSnowboard,
		Detect:    detect.DefaultOptions(),
		KnownPMCs: set,
		Fsck:      func() []string { return env.K.FsckHost() },
	}
	out := x.Explore(snowboard.ConcurrentTest{Writer: tc.writer, Reader: tc.reader, Hint: hint})
	return &out
}

func assertFound(t *testing.T, tc table2Case, out *snowboard.ExploreOutcome) {
	t.Helper()
	for _, is := range out.Issues {
		if is.BugID != tc.id {
			continue
		}
		for _, k := range tc.wantKind {
			if is.Kind == k {
				t.Logf("issue #%d exposed as [%s] %q on trial %d", tc.id, is.Kind, is.Desc, out.TrialOf(is))
				return
			}
		}
	}
	t.Fatalf("issue #%d not exposed in %d trials; found: %+v", tc.id, out.Trials, out.Issues)
}

// --- per-issue programs ---

func msgWriterProg() *snowboard.Prog { // creates then removes the queue
	return P(
		C(kernel.SysMsggetNr, 0x5ee),
		C(kernel.SysMsgctlNr, 0x5ee, kernel.IPCRmid),
	)
}

func msgReaderProg() *snowboard.Prog { // second msgget performs a found-lookup
	return P(
		C(kernel.SysMsggetNr, 0x5ee),
		C(kernel.SysMsggetNr, 0x5ee),
	)
}

func TestTable2Issue1RhashtableDoubleFetch(t *testing.T) {
	tc := table2Case{
		id: 1, version: snowboard.V5_3_10,
		writer: msgWriterProg(), reader: msgReaderProg(),
		hint:     hintSpec{writePfx: "rht_assign_unlock", readPfx: "rht_ptr"},
		wantKind: []detect.IssueKind{detect.KindPanic, detect.KindDataRace},
		trials:   256,
	}
	out := exploreCase(t, tc)
	assertFound(t, tc, out)
	// The crash form must be reachable, not only the race shadow.
	var panicked bool
	for _, is := range out.Issues {
		if is.BugID == 1 && is.Kind == detect.KindPanic {
			panicked = true
		}
	}
	if !panicked {
		t.Fatalf("double fetch never dereferenced null in %d trials", out.Trials)
	}
}

func TestTable2Issue1AbsentIn512(t *testing.T) {
	// The 5.12-rc3 __rht_ptr reads the bucket once with RCU semantics:
	// neither the panic nor the race should appear.
	tc := table2Case{
		id: 1, version: snowboard.V5_12_RC3,
		writer: msgWriterProg(), reader: msgReaderProg(),
		hint:   hintSpec{writePfx: "rht_assign_unlock", readPfx: "rht_ptr"},
		trials: 128,
	}
	out := exploreCase(t, tc)
	for _, is := range out.Issues {
		if is.BugID == 1 {
			t.Fatalf("issue #1 reported on fixed kernel: %+v", is)
		}
		if is.Kind == detect.KindPanic {
			t.Fatalf("unexpected panic on fixed kernel: %+v", is)
		}
	}
}

func TestTable2Issue2SwapBootChecksum(t *testing.T) {
	tc := table2Case{
		id: 2, version: snowboard.V5_12_RC3,
		writer: P(
			C(kernel.SysOpenNr, 3, 0),
			CR(kernel.SysIoctlNr, snowboard.ResultArg(0), snowboard.Const(kernel.Ext4IOCSwapBoot), snowboard.Const(0)),
		),
		reader: P(
			C(kernel.SysOpenNr, 3, 0),
			CR(kernel.SysWriteNr, snowboard.ResultArg(0), snowboard.Const(65536), snowboard.Const(4096)),
		),
		hint:     hintSpec{writePfx: "swap_inode_boot_loader:store_target_block", readPfx: ""},
		wantKind: []detect.IssueKind{detect.KindFSError, detect.KindDataRace},
		trials:   256,
	}
	out := exploreCase(t, tc)
	assertFound(t, tc, out)
	var fsError bool
	for _, is := range out.Issues {
		if is.BugID == 2 && is.Kind == detect.KindFSError {
			fsError = true
		}
	}
	if !fsError {
		t.Fatalf("checksum corruption never materialized on disk in %d trials", out.Trials)
	}
}

func TestTable2Issue3ExtentMagic(t *testing.T) {
	tc := table2Case{
		id: 3, version: snowboard.V5_3_10,
		writer: P(C(kernel.SysRenameNr, 3, 4)),
		reader: P(
			C(kernel.SysOpenNr, 3, 0),
			CR(kernel.SysReadNr, snowboard.ResultArg(0), snowboard.Const(4096)),
		),
		hint:     hintSpec{writePfx: "ext4_extent_grow:clear_eh_magic", readPfx: "ext4_ext_check_inode"},
		wantKind: []detect.IssueKind{detect.KindFSError, detect.KindDataRace},
	}
	assertFound(t, tc, exploreCase(t, tc))
}

func TestTable2Issue4BlkIOError(t *testing.T) {
	tc := table2Case{
		id: 4, version: snowboard.V5_3_10,
		writer: P(
			C(kernel.SysOpenNr, 0, 0),
			CR(kernel.SysIoctlNr, snowboard.ResultArg(0), snowboard.Const(kernel.BLKBSZSET), snowboard.Const(512)),
		),
		reader: P(
			C(kernel.SysOpenNr, 0, 0),
			CR(kernel.SysReadNr, snowboard.ResultArg(0), snowboard.Const(4096)),
		),
		hint:     hintSpec{writePfx: "set_blocksize:store_bd_block_size", readPfx: "blk_update_request"},
		wantKind: []detect.IssueKind{detect.KindIOError, detect.KindDataRace},
		trials:   256,
	}
	out := exploreCase(t, tc)
	assertFound(t, tc, out)
	var ioErr bool
	for _, is := range out.Issues {
		if is.BugID == 4 && is.Kind == detect.KindIOError {
			ioErr = true
		}
	}
	if !ioErr {
		t.Fatalf("I/O error never logged in %d trials", out.Trials)
	}
}

func TestTable2Issue5FadviseRace(t *testing.T) {
	tc := table2Case{
		id: 5, version: snowboard.V5_3_10,
		writer: P(
			C(kernel.SysOpenNr, 0, 0),
			CR(kernel.SysIoctlNr, snowboard.ResultArg(0), snowboard.Const(kernel.BLKBSZSET), snowboard.Const(1024)),
		),
		reader: P(
			C(kernel.SysOpenNr, 0, 0),
			CR(kernel.SysFadviseNr, snowboard.ResultArg(0), snowboard.Const(0), snowboard.Const(65536)),
		),
		hint:     hintSpec{writePfx: "set_blocksize:store_bd_block_size", readPfx: "generic_fadvise"},
		wantKind: []detect.IssueKind{detect.KindDataRace},
	}
	assertFound(t, tc, exploreCase(t, tc))
}

func TestTable2Issue6MpageRace(t *testing.T) {
	tc := table2Case{
		id: 6, version: snowboard.V5_3_10,
		writer: P(
			C(kernel.SysOpenNr, 0, 0),
			CR(kernel.SysIoctlNr, snowboard.ResultArg(0), snowboard.Const(kernel.BLKBSZSET), snowboard.Const(2048)),
		),
		reader: P(
			C(kernel.SysOpenNr, 0, 0),
			CR(kernel.SysReadNr, snowboard.ResultArg(0), snowboard.Const(4096)),
		),
		hint:     hintSpec{writePfx: "set_blocksize:store_sb_blkbits", readPfx: "do_mpage_readpage"},
		wantKind: []detect.IssueKind{detect.KindDataRace},
	}
	assertFound(t, tc, exploreCase(t, tc))
}

func TestTable2Issue7MtuRace(t *testing.T) {
	tc := table2Case{
		id: 7, version: snowboard.V5_3_10,
		writer: P(
			sock(kernel.AFInet, kernel.SockDgram, 0),
			CR(kernel.SysIoctlNr, snowboard.ResultArg(0), snowboard.Const(kernel.SIOCSIFMTU), snowboard.Const(1400)),
		),
		reader: P(
			sock(kernel.AFInet6, kernel.SockRaw, 0),
			CR(kernel.SysSendmsgNr, snowboard.ResultArg(0), snowboard.Const(512)),
		),
		hint:     hintSpec{writePfx: "__dev_set_mtu", readPfx: "rawv6_send_hdrinc"},
		wantKind: []detect.IssueKind{detect.KindDataRace},
	}
	assertFound(t, tc, exploreCase(t, tc))
}

func TestTable2Issue8PacketGetnameRace(t *testing.T) {
	tc := table2Case{
		id: 8, version: snowboard.V5_3_10,
		writer: P(
			sock(kernel.AFInet, kernel.SockDgram, 0),
			CR(kernel.SysIoctlNr, snowboard.ResultArg(0), snowboard.Const(kernel.SIOCETHTOOL), snowboard.Const(0x55)),
		),
		reader: P(
			sock(kernel.AFPacket, kernel.SockRaw, 0),
			CR(kernel.SysGetsocknameNr, snowboard.ResultArg(0)),
		),
		hint:     hintSpec{writePfx: "e1000_set_mac", readPfx: "packet_getname"},
		wantKind: []detect.IssueKind{detect.KindDataRace},
	}
	assertFound(t, tc, exploreCase(t, tc))
}

func TestTable2Issue9TornMAC(t *testing.T) {
	tc := table2Case{
		id: 9, version: snowboard.V5_3_10,
		writer: P(
			sock(kernel.AFInet, kernel.SockDgram, 0),
			CR(kernel.SysIoctlNr, snowboard.ResultArg(0), snowboard.Const(kernel.SIOCSIFHWADDR), snowboard.Const(0x2)),
		),
		reader: P(
			sock(kernel.AFInet, kernel.SockDgram, 0),
			CR(kernel.SysIoctlNr, snowboard.ResultArg(0), snowboard.Const(kernel.SIOCGIFHWADDR), snowboard.Const(0)),
		),
		hint:     hintSpec{writePfx: "eth_commit_mac_addr_change", readPfx: "dev_ifsioc_locked:memcpy"},
		wantKind: []detect.IssueKind{detect.KindDataRace},
	}
	assertFound(t, tc, exploreCase(t, tc))
}

func TestTable2Issue10Fib6Benign(t *testing.T) {
	tc := table2Case{
		id: 10, version: snowboard.V5_3_10,
		writer: P(
			sock(kernel.AFInet6, kernel.SockRaw, 0),
			CR(kernel.SysIoctlNr, snowboard.ResultArg(0), snowboard.Const(kernel.SIOCDELRT), snowboard.Const(0)),
		),
		reader: P(
			sock(kernel.AFInet6, kernel.SockRaw, 0),
			CR(kernel.SysConnectNr, snowboard.ResultArg(0), snowboard.Const(1), snowboard.ResultArg(0)),
		),
		hint:     hintSpec{writePfx: "fib6_clean_node:store_fn_sernum", readPfx: "fib6_get_cookie_safe"},
		wantKind: []detect.IssueKind{detect.KindDataRace},
	}
	out := exploreCase(t, tc)
	assertFound(t, tc, out)
	for _, is := range out.Issues {
		if is.BugID == 10 && is.Harmful {
			t.Fatalf("issue #10 must be classified benign: %+v", is)
		}
	}
}

func cfsWriter() *snowboard.Prog {
	return P(C(kernel.SysMkdirNr, 0x11), C(kernel.SysRmdirNr, 0x11))
}

func cfsReader() *snowboard.Prog {
	return P(C(kernel.SysOpenatCfsNr, 0x11))
}

func TestTable2Issue11ConfigfsLookup(t *testing.T) {
	tc := table2Case{
		id: 11, version: snowboard.V5_12_RC3,
		writer:   cfsWriter(),
		reader:   cfsReader(),
		hint:     hintSpec{writePfx: "configfs_detach_item", readPfx: "configfs_lookup:load_s_element"},
		wantKind: []detect.IssueKind{detect.KindPanic, detect.KindDataRace},
		trials:   256,
	}
	out := exploreCase(t, tc)
	assertFound(t, tc, out)
	var panicked bool
	for _, is := range out.Issues {
		if is.BugID == 11 && is.Kind == detect.KindPanic {
			panicked = true
		}
	}
	if !panicked {
		t.Fatalf("configfs null dereference never reproduced in %d trials", out.Trials)
	}
}

func TestTable2Issue11AbsentIn53(t *testing.T) {
	tc := table2Case{
		id: 11, version: snowboard.V5_3_10,
		writer: cfsWriter(), reader: cfsReader(),
		hint:   hintSpec{writePfx: "configfs_detach_item", readPfx: ""},
		trials: 128,
	}
	out := exploreCase(t, tc)
	for _, is := range out.Issues {
		if is.BugID == 11 {
			t.Fatalf("issue #11 reported on locked (fixed) lookup: %+v", is)
		}
	}
}

func l2tpWriter() *snowboard.Prog {
	return P(
		sock(kernel.AFPppox, kernel.SockDgram, kernel.PxProtoOL2TP),
		sock(kernel.AFInet, kernel.SockDgram, 0),
		CR(kernel.SysConnectNr, snowboard.ResultArg(0), snowboard.Const(1), snowboard.ResultArg(1)),
	)
}

func l2tpReader() *snowboard.Prog {
	p := l2tpWriter()
	p.Calls = append(p.Calls, CR(kernel.SysSendmsgNr, snowboard.ResultArg(0), snowboard.Const(512)))
	return p
}

func TestTable2Issue12L2TPOrderViolation(t *testing.T) {
	tc := table2Case{
		id: 12, version: snowboard.V5_12_RC3,
		writer:   l2tpWriter(),
		reader:   l2tpReader(),
		hint:     hintSpec{writePfx: "l2tp_tunnel_register:list_add_rcu", readPfx: "l2tp_tunnel_get"},
		wantKind: []detect.IssueKind{detect.KindPanic, detect.KindDataRace},
		trials:   256,
	}
	out := exploreCase(t, tc)
	assertFound(t, tc, out)
	var panicked bool
	for _, is := range out.Issues {
		if is.BugID == 12 && is.Kind == detect.KindPanic {
			panicked = true
		}
	}
	if !panicked {
		t.Fatalf("l2tp null dereference never reproduced in %d trials", out.Trials)
	}
}

func TestTable2Issue13SlabCounter(t *testing.T) {
	tc := table2Case{
		id: 13, version: snowboard.V5_12_RC3,
		writer:   P(sock(kernel.AFInet, kernel.SockStream, 0)),
		reader:   P(sock(kernel.AFInet, kernel.SockStream, 0)),
		hint:     hintSpec{writePfx: "cache_alloc_refill", readPfx: "cache_alloc_refill"},
		wantKind: []detect.IssueKind{detect.KindDataRace},
		trials:   64,
	}
	out := exploreCase(t, tc)
	assertFound(t, tc, out)
	for _, is := range out.Issues {
		if is.BugID == 13 && is.Harmful {
			t.Fatalf("issue #13 must be benign: %+v", is)
		}
	}
}

func TestTable2Issue14TTYAutoconfig(t *testing.T) {
	tc := table2Case{
		id: 14, version: snowboard.V5_12_RC3,
		writer: P(
			C(kernel.SysOpenNr, 1, 0),
			CR(kernel.SysIoctlNr, snowboard.ResultArg(0), snowboard.Const(kernel.TIOCSSERIAL), snowboard.Const(0)),
		),
		reader:   P(C(kernel.SysOpenNr, 1, 0)),
		hint:     hintSpec{writePfx: "uart_do_autoconfig", readPfx: "tty_port_open:load_port_flags"},
		wantKind: []detect.IssueKind{detect.KindDataRace},
	}
	assertFound(t, tc, exploreCase(t, tc))
}

func TestTable2Issue15SndCtlElemAdd(t *testing.T) {
	prog := P(
		C(kernel.SysOpenNr, 2, 0),
		CR(kernel.SysIoctlNr, snowboard.ResultArg(0), snowboard.Const(kernel.SndCtlElemAddIoctl), snowboard.Const(512)),
	)
	tc := table2Case{
		id: 15, version: snowboard.V5_12_RC3,
		writer:   prog,
		reader:   prog.Clone(), // a duplicate concurrent test, like the paper's
		hint:     hintSpec{writePfx: "snd_ctl_elem_add:store_user_ctl_alloc_size", readPfx: "snd_ctl_elem_add:load_user_ctl_alloc_size"},
		wantKind: []detect.IssueKind{detect.KindDataRace},
	}
	assertFound(t, tc, exploreCase(t, tc))
}

func TestTable2Issue16CongestionControl(t *testing.T) {
	tc := table2Case{
		id: 16, version: snowboard.V5_12_RC3,
		writer: P(
			sock(kernel.AFInet, kernel.SockStream, 0),
			CR(kernel.SysSetsockoptNr, snowboard.ResultArg(0), snowboard.Const(kernel.TCPDefaultCC), snowboard.Const(1)),
		),
		reader: P(
			sock(kernel.AFInet, kernel.SockStream, 0),
			CR(kernel.SysSetsockoptNr, snowboard.ResultArg(0), snowboard.Const(kernel.TCPCongestion), snowboard.Const(0xff)),
		),
		hint:     hintSpec{writePfx: "tcp_set_default_congestion_control", readPfx: "tcp_set_congestion_control"},
		wantKind: []detect.IssueKind{detect.KindDataRace},
	}
	out := exploreCase(t, tc)
	assertFound(t, tc, out)
	for _, is := range out.Issues {
		if is.BugID == 16 && is.Harmful {
			t.Fatalf("issue #16 must be benign: %+v", is)
		}
	}
}

func TestTable2Issue17FanoutRollover(t *testing.T) {
	tc := table2Case{
		id: 17, version: snowboard.V5_12_RC3,
		writer: P(
			sock(kernel.AFPacket, kernel.SockRaw, 0),
			CR(kernel.SysSetsockoptNr, snowboard.ResultArg(0), snowboard.Const(kernel.PacketFanout), snowboard.Const(1)),
			CR(kernel.SysSetsockoptNr, snowboard.ResultArg(0), snowboard.Const(kernel.PacketFanoutLeave), snowboard.Const(0)),
		),
		reader: P(
			sock(kernel.AFPacket, kernel.SockRaw, 0),
			CR(kernel.SysSetsockoptNr, snowboard.ResultArg(0), snowboard.Const(kernel.PacketFanout), snowboard.Const(1)),
			CR(kernel.SysSendmsgNr, snowboard.ResultArg(0), snowboard.Const(64)),
		),
		hint:     hintSpec{writePfx: "__fanout_unlink:store_num_members", readPfx: "fanout_demux_rollover:load_num_members"},
		wantKind: []detect.IssueKind{detect.KindDataRace},
	}
	assertFound(t, tc, exploreCase(t, tc))
}
