package detect

import (
	"reflect"
	"strings"
	"testing"

	"snowboard/internal/trace"
)

var (
	dIns1 = trace.DefIns("detect_test:w1")
	dIns2 = trace.DefIns("detect_test:r1")
	dIns3 = trace.DefIns("detect_test:lock")
	dIns4 = trace.DefIns("detect_test:w2")
)

func acc(th int, kind trace.Kind, ins trace.Ins, addr uint64, size uint8, val uint64) trace.Access {
	return trace.Access{Thread: th, Kind: kind, Ins: ins, Addr: addr, Size: size, Val: val}
}

func traceOf(accs ...trace.Access) *trace.Trace {
	tr := &trace.Trace{}
	for _, a := range accs {
		tr.Record(a.Ins, a.Addr, a.Val, a.Meta())
	}
	return tr
}

func TestConsolePanicClassification(t *testing.T) {
	last := []trace.Ins{1: trace.DefIns("l2tp_xmit_core:load_tunnel_sock")}
	issues := CheckConsole([]string{"BUG: kernel NULL pointer dereference, address: 0x0"}, last)
	if len(issues) != 1 || issues[0].Kind != KindPanic {
		t.Fatalf("issues: %+v", issues)
	}
	if issues[0].BugID != 12 || !issues[0].Harmful {
		t.Fatalf("panic not attributed to #12: %+v", issues[0])
	}
}

func TestConsoleFSErrorClassification(t *testing.T) {
	issues := CheckConsole([]string{
		"EXT4-fs error (device sda): swap_inode_boot_loader:316: inode #1: comm test: iget: checksum invalid",
		"EXT4-fs error (device sda): ext4_ext_check_inode:444: inode #2: invalid magic - magic 0",
		"blk_update_request: I/O error, dev sda, sector 8",
	}, nil)
	if len(issues) != 3 {
		t.Fatalf("issues: %d", len(issues))
	}
	if issues[0].BugID != 2 || issues[1].BugID != 3 || issues[2].BugID != 4 {
		t.Fatalf("classification: %d %d %d", issues[0].BugID, issues[1].BugID, issues[2].BugID)
	}
	if issues[0].Kind != KindFSError || issues[2].Kind != KindIOError {
		t.Fatal("kinds wrong")
	}
}

func TestLocksetRaceBasic(t *testing.T) {
	tr := traceOf(
		acc(0, trace.Write, dIns1, 0x100, 8, 1),
		acc(1, trace.Read, dIns2, 0x100, 8, 0),
	)
	races := FindRaces(tr)
	if len(races) != 1 {
		t.Fatalf("races: %d", len(races))
	}
}

func TestLocksetCommonLockSuppresses(t *testing.T) {
	w := acc(0, trace.Write, dIns1, 0x100, 8, 1)
	r := acc(1, trace.Read, dIns2, 0x100, 8, 0)
	lock := func(th int, val uint64) trace.Access { // val != 0 acquires, 0 releases
		a := acc(th, trace.Write, dIns3, 0x50, 8, val)
		a.Atomic = true
		return a
	}
	if races := FindRaces(traceOf(lock(0, 1), w, lock(0, 0), lock(1, 2), r, lock(1, 0))); len(races) != 0 {
		t.Fatalf("locked pair reported: %+v", races)
	}
}

func TestLocksetMarkedPairSuppressed(t *testing.T) {
	w := acc(0, trace.Write, dIns1, 0x100, 8, 1)
	r := acc(1, trace.Read, dIns2, 0x100, 8, 0)
	w.Marked, r.Marked = true, true
	if races := FindRaces(traceOf(w, r)); len(races) != 0 {
		t.Fatal("marked/marked pair reported")
	}
	// One plain side keeps the report.
	r.Marked = false
	if races := FindRaces(traceOf(w, r)); len(races) != 1 {
		t.Fatal("marked/plain pair suppressed")
	}
}

func TestLocksetStackAndAtomicSkipped(t *testing.T) {
	w := acc(0, trace.Write, dIns1, 0x100, 8, 1)
	r := acc(1, trace.Read, dIns2, 0x100, 8, 0)
	w.Stack = true
	if races := FindRaces(traceOf(w, r)); len(races) != 0 {
		t.Fatal("stack access raced")
	}
	w.Stack, w.Atomic = false, true
	if races := FindRaces(traceOf(w, r)); len(races) != 0 {
		t.Fatal("atomic access raced")
	}
}

func TestHBProgramOrderNoRace(t *testing.T) {
	tr := traceOf(
		acc(0, trace.Write, dIns1, 0x100, 8, 1),
		acc(0, trace.Read, dIns2, 0x100, 8, 1),
	)
	if races := FindRacesHB(tr); len(races) != 0 {
		t.Fatalf("same-thread accesses raced: %+v", races)
	}
}

func TestHBUnsynchronizedRace(t *testing.T) {
	tr := traceOf(
		acc(0, trace.Write, dIns1, 0x100, 8, 1),
		acc(1, trace.Read, dIns2, 0x100, 8, 1),
	)
	races := FindRacesHB(tr)
	if len(races) != 1 {
		t.Fatalf("races: %d", len(races))
	}
	if races[0].Write.Ins != dIns1 || races[0].Read.Ins != dIns2 {
		t.Fatalf("race pair: %+v", races[0])
	}
}

// lockOps emits the atomic lock-word traffic the VM produces.
func lockAcquire(th int, lock uint64) trace.Access {
	a := acc(th, trace.Write, dIns3, lock, 8, uint64(th)+1)
	a.Atomic = true
	return a
}

func lockRelease(th int, lock uint64) trace.Access {
	a := acc(th, trace.Write, dIns3, lock, 8, 0)
	a.Atomic = true
	return a
}

func TestHBLockEdgeOrders(t *testing.T) {
	const lock = 0x50
	tr := traceOf(
		lockAcquire(0, lock),
		acc(0, trace.Write, dIns1, 0x100, 8, 1),
		lockRelease(0, lock),
		lockAcquire(1, lock),
		acc(1, trace.Read, dIns2, 0x100, 8, 1),
		lockRelease(1, lock),
	)
	if races := FindRacesHB(tr); len(races) != 0 {
		t.Fatalf("lock-ordered accesses raced: %+v", races)
	}
}

func TestHBWriteAfterReleaseRaces(t *testing.T) {
	const lock = 0x50
	tr := traceOf(
		lockAcquire(0, lock),
		lockRelease(0, lock),
		acc(0, trace.Write, dIns1, 0x100, 8, 1), // after the release: unordered
		lockAcquire(1, lock),
		acc(1, trace.Read, dIns2, 0x100, 8, 1),
	)
	if races := FindRacesHB(tr); len(races) != 1 {
		t.Fatalf("post-release write not raced: %+v", races)
	}
}

func TestHBPublicationOrdersInit(t *testing.T) {
	// Thread 0 initializes an object, publishes it with a marked store;
	// thread 1 reads the pointer (plain dependent read) then the field.
	pub := acc(0, trace.Write, dIns4, 0x200, 8, 0x100)
	pub.Marked = true
	tr := traceOf(
		acc(0, trace.Write, dIns1, 0x100, 8, 7), // init field
		pub,                                     // publish
		acc(1, trace.Read, dIns2, 0x200, 8, 0x100), // load pointer
		acc(1, trace.Read, dIns2, 0x100, 8, 7),     // dereference field
	)
	races := FindRacesHB(tr)
	for _, r := range races {
		if r.Write.Ins == dIns1 {
			t.Fatalf("publication did not order init store: %+v", r)
		}
	}
}

func TestHBPostPublicationStoreRaces(t *testing.T) {
	pub := acc(0, trace.Write, dIns4, 0x200, 8, 0x100)
	pub.Marked = true
	tr := traceOf(
		pub,
		acc(1, trace.Read, dIns2, 0x200, 8, 0x100), // consume pointer
		acc(0, trace.Write, dIns1, 0x100, 8, 7),    // late init — after publish
		acc(1, trace.Read, dIns2, 0x100, 8, 7),     // dereference: races with late init
	)
	races := FindRacesHB(tr)
	found := false
	for _, r := range races {
		if r.Write.Ins == dIns1 && r.Read.Ins == dIns2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("late-init race missed: %+v", races)
	}
}

func TestHBWriteWriteConflict(t *testing.T) {
	tr := traceOf(
		acc(0, trace.Write, dIns1, 0x100, 8, 1),
		acc(1, trace.Write, dIns4, 0x100, 8, 2),
	)
	if races := FindRacesHB(tr); len(races) != 1 {
		t.Fatalf("write/write conflict missed: %+v", races)
	}
}

func TestFindTornReads(t *testing.T) {
	// Thread 1 reads 6 bytes with one instruction; thread 0 writes into
	// the middle of the run.
	var accs []trace.Access
	for i := 0; i < 3; i++ {
		accs = append(accs, acc(1, trace.Read, dIns2, 0x100+uint64(i), 1, 0xAA))
	}
	accs = append(accs, acc(0, trace.Write, dIns1, 0x103, 1, 0xBB))
	for i := 3; i < 6; i++ {
		accs = append(accs, acc(1, trace.Read, dIns2, 0x100+uint64(i), 1, 0xBB))
	}
	torn := FindTornReads(traceOf(accs...))
	if len(torn) != 1 {
		t.Fatalf("torn reads: %+v", torn)
	}
	if torn[0].ReadIns != dIns2 || torn[0].WriteIns != dIns1 || torn[0].Len != 6 {
		t.Fatalf("torn report: %+v", torn[0])
	}
}

func TestFindTornReadsNoWriterNoReport(t *testing.T) {
	var accs []trace.Access
	for i := 0; i < 6; i++ {
		accs = append(accs, acc(1, trace.Read, dIns2, 0x100+uint64(i), 1, 0xAA))
	}
	if torn := FindTornReads(traceOf(accs...)); len(torn) != 0 {
		t.Fatalf("phantom torn read: %+v", torn)
	}
}

// tornRun lays out the reads of a byte-copy loop by thread 1 over 0x100,
// one byte each, with gap[k] accesses of thread 0 before read k: the first
// a write to read k's byte when write is set, the rest writes far away.
func tornRun(reads int, gap map[int]int, write bool) *trace.Trace {
	var accs []trace.Access
	for k := 0; k < reads; k++ {
		for g := 0; g < gap[k]; g++ {
			addr := uint64(0x800 + g)
			if g == 0 && write {
				addr = 0x100 + uint64(k)
			}
			accs = append(accs, acc(0, trace.Write, dIns1, addr, 1, 0xBB))
		}
		accs = append(accs, acc(1, trace.Read, dIns2, 0x100+uint64(k), 1, 0xAA))
	}
	return traceOf(accs...)
}

// TestTornReadRuns pins which runs FindTornReads checks: any run spanning
// at least three rows, so two reads with a write between them count, and
// a run ends where its thread's next access is past the 16-row lookahead.
// gate is whether the switch pre-check lets the scan run.
func TestTornReadRuns(t *testing.T) {
	for _, tc := range []struct {
		name    string
		tr      *trace.Trace
		gate    bool
		wantLen int // of the one report; 0: no report
	}{
		{"two reads torn across a switch", tornRun(2, map[int]int{1: 1}, true), true, 2},
		{"six reads, no switch", tornRun(6, nil, false), false, 0},
		{"six reads, a switch to a write elsewhere", tornRun(6, map[int]int{3: 2}, false), true, 0},
		{"next read 16 rows on extends the run", tornRun(3, map[int]int{2: 15}, true), true, 3},
		{"next read 17 rows on ends the run", tornRun(3, map[int]int{2: 16}, true), false, 0},
	} {
		if got := mayTear(tc.tr); got != tc.gate {
			t.Errorf("%s: gate %v, want %v", tc.name, got, tc.gate)
		}
		torn := FindTornReads(tc.tr)
		if tc.wantLen == 0 {
			if torn != nil {
				t.Errorf("%s: reported %+v", tc.name, torn)
			}
			continue
		}
		if len(torn) != 1 || torn[0].ReadIns != dIns2 || torn[0].WriteIns != dIns1 || torn[0].Addr != 0x100 || torn[0].Len != tc.wantLen {
			t.Errorf("%s: reported %+v, want one %d-byte read at 0x100", tc.name, torn, tc.wantLen)
		}
	}
}

func TestClassifyRaceTable2(t *testing.T) {
	w := trace.DefIns("eth_commit_mac_addr_change:memcpy_dev_addr")
	r := trace.DefIns("dev_ifsioc_locked:memcpy_ifr_hwaddr")
	is := ClassifyRace(RaceReport{
		Write: trace.Access{Ins: w, Kind: trace.Write},
		Read:  trace.Access{Ins: r, Kind: trace.Read},
	})
	if is.BugID != 9 || !is.Harmful {
		t.Fatalf("classification: %+v", is)
	}
	if !strings.Contains(is.Desc, "eth_commit_mac_addr_change()") {
		t.Fatalf("desc: %q", is.Desc)
	}
}

func TestClassifyRaceSymmetric(t *testing.T) {
	// The same-variable race reported with sides flipped still classifies.
	w := trace.DefIns("fib6_get_cookie_safe:load_fn_sernum")
	r := trace.DefIns("fib6_clean_node:store_fn_sernum")
	is := ClassifyRace(RaceReport{
		Write: trace.Access{Ins: r, Kind: trace.Write},
		Read:  trace.Access{Ins: w, Kind: trace.Read},
	})
	if is.BugID != 10 || is.Harmful {
		t.Fatalf("classification: %+v", is)
	}
}

func TestClassifyRaceUnknown(t *testing.T) {
	is := ClassifyRace(RaceReport{
		Write: trace.Access{Ins: dIns1, Kind: trace.Write},
		Read:  trace.Access{Ins: dIns2, Kind: trace.Read},
	})
	if is.BugID != 0 {
		t.Fatalf("phantom classification: %+v", is)
	}
}

func TestTable2RegistryConsistency(t *testing.T) {
	seen := make(map[int]bool)
	for _, b := range Table2 {
		if b.ID < 1 || b.ID > 17 {
			t.Fatalf("bad id %d", b.ID)
		}
		if seen[b.ID] {
			t.Fatalf("duplicate id %d", b.ID)
		}
		seen[b.ID] = true
		if len(b.Versions) == 0 {
			t.Fatalf("#%d has no versions", b.ID)
		}
		for _, v := range b.Versions {
			if v != "5.3.10" && v != "5.12-rc3" {
				t.Fatalf("#%d bad version %q", b.ID, v)
			}
		}
		if b.Type != "DR" && b.Type != "AV" && b.Type != "OV" {
			t.Fatalf("#%d bad type %q", b.ID, b.Type)
		}
	}
	if len(seen) != 17 {
		t.Fatalf("registry has %d rows, want 17", len(seen))
	}
	// The catalogue names only what can match: every function it names
	// is a registered kernel site's, and no pair, panic function or
	// console pattern is claimed by two rules. A pair with a function some
	// row pairs with anything is that row's already.
	_, sites := siteFuncs()
	anyFn := map[string]int{}
	for _, b := range Table2 {
		if b.ReadFn == "" {
			anyFn[b.WriteFn] = b.ID
		}
	}
	pairs, panics, console := map[[2]string]int{}, map[string]int{}, map[string]int{}
	claim := func(id int, a, b string) {
		for _, fn := range []string{a, b} {
			if _, ok := sites[fn]; !ok && fn != "" {
				t.Errorf("#%d names %q, which no kernel site belongs to", id, fn)
			}
			if other, ok := anyFn[fn]; ok && a != "" && b != "" {
				t.Errorf("#%d claims %s/%s, which #%d files by %s", id, a, b, other, fn)
			}
		}
		k := [2]string{min(a, b), max(a, b)}
		if other, ok := pairs[k]; ok {
			t.Errorf("#%d claims %s/%s, which #%d claims", id, a, b, other)
		}
		pairs[k] = id
	}
	for _, b := range Table2 {
		claim(b.ID, b.WriteFn, b.ReadFn)
		for _, p := range b.Races {
			claim(b.ID, p[0], p[1])
		}
		for _, fn := range b.Panics {
			if _, ok := sites[fn]; !ok {
				t.Errorf("#%d files panics by %q, which no kernel site belongs to", b.ID, fn)
			}
			if other, ok := panics[fn]; ok {
				t.Errorf("#%d files panics by %s, which #%d does", b.ID, fn, other)
			}
			panics[fn] = b.ID
		}
		for _, pat := range b.Console {
			if other, ok := console[pat]; ok {
				t.Errorf("#%d files console lines by %q, which #%d does", b.ID, pat, other)
			}
			console[pat] = b.ID
		}
	}
	if _, ok := BugByID(12); !ok {
		t.Fatal("BugByID(12) failed")
	}
	if _, ok := BugByID(99); ok {
		t.Fatal("BugByID(99) succeeded")
	}
}

func TestAnalyzeDeduplicates(t *testing.T) {
	tr := traceOf(
		acc(0, trace.Write, dIns1, 0x100, 8, 1),
		acc(1, trace.Read, dIns2, 0x100, 8, 1),
		acc(0, trace.Write, dIns1, 0x100, 8, 2),
		acc(1, trace.Read, dIns2, 0x100, 8, 2),
	)
	issues := Analyze(TrialInput{Trace: tr}, DefaultOptions())
	races := 0
	for _, is := range issues {
		if is.Kind == KindDataRace {
			races++
		}
	}
	if races != 1 {
		t.Fatalf("duplicate race reports: %d", races)
	}
}

func TestAnalyzeHangAndDeadlock(t *testing.T) {
	issues := Analyze(TrialInput{Hung: true, Deadlock: true}, DefaultOptions())
	var hang, dead bool
	for _, is := range issues {
		switch is.Kind {
		case KindHang:
			hang = true
		case KindDeadlock:
			dead = true
		}
	}
	if !hang || !dead {
		t.Fatalf("hang/deadlock not reported: %+v", issues)
	}
}

func TestIssueIDDistinguishesTorn(t *testing.T) {
	race := Issue{Kind: KindDataRace, WriteIns: dIns1, ReadIns: dIns2}
	torn := race
	torn.Torn = true
	if race.ID() == torn.ID() {
		t.Fatal("torn and plain race share an ID")
	}
}

// TestFindRacesShuffleInvariant pins the report ordering against map
// iteration order and sort-internals: the same trace must produce the
// identical race list on every call, sorted by (write Ins, read Ins).
func TestFindRacesShuffleInvariant(t *testing.T) {
	ws := []trace.Ins{dIns1, dIns4, trace.DefIns("detect_test:w3"), trace.DefIns("detect_test:w4")}
	rs := []trace.Ins{dIns2, trace.DefIns("detect_test:r2"), trace.DefIns("detect_test:r3")}
	var accs []trace.Access
	for wi, w := range ws {
		for ri, r := range rs {
			addr := uint64(0x1000 + 0x10*(wi*len(rs)+ri))
			accs = append(accs, acc(0, trace.Write, w, addr, 8, 1), acc(1, trace.Read, r, addr, 8, 0))
		}
	}
	base := FindRaces(traceOf(accs...))
	if len(base) != len(ws)*len(rs) {
		t.Fatalf("races: %d, want %d", len(base), len(ws)*len(rs))
	}
	for i := 1; i < len(base); i++ {
		a, b := base[i-1], base[i]
		if a.Write.Ins > b.Write.Ins || (a.Write.Ins == b.Write.Ins && a.Read.Ins >= b.Read.Ins) {
			t.Fatalf("races not strictly ordered at %d: %+v then %+v", i, a, b)
		}
	}
	for run := 0; run < 50; run++ {
		if got := FindRaces(traceOf(accs...)); !reflect.DeepEqual(got, base) {
			t.Fatalf("run %d: race order diverged", run)
		}
	}
}

// Regression: classifyPanic ranged over a thread → last-access map, so a
// panic with one thread in configfs_lookup and the other in l2tp code was
// filed as #11 or #12 by map iteration order. Threads are now consulted in
// ascending id.
func TestPanicClassificationThreadOrder(t *testing.T) {
	tr := traceOf(
		acc(1, trace.Read, trace.DefIns("l2tp_xmit_core:load_tunnel_sock"), 0x100, 8, 0),
		acc(0, trace.Read, trace.DefIns("configfs_lookup:load_dirent"), 0x200, 8, 0),
	)
	in := TrialInput{Console: []string{"BUG: kernel NULL pointer dereference, address: 0x0"}, Trace: tr}
	for i := 0; i < 200; i++ {
		issues := Analyze(in, Options{Console: true})
		if len(issues) != 1 || issues[0].BugID != 11 {
			t.Fatalf("run %d: want one panic filed as #11 (thread 0 decides), got %+v", i, issues)
		}
	}
}
