package vm

import (
	"slices"
	"testing"

	"snowboard/internal/trace"
)

// TestFaultReleasesLocksForSibling: when a thread dies on a fault while
// holding locks, the machine fences it off and releases them, so the other
// thread does not deadlock (the paper's trials continue to completion even
// after a crash is logged).
func TestFaultReleasesLocksForSibling(t *testing.T) {
	m := newTestMachine()
	lock := uint64(testRegionBase + 0x800)
	done := false
	m.Spawn("crasher", testStackBase, func(th *Thread) {
		th.Lock(insT, lock)
		th.Load(insT, 0x10, 8) // null deref while holding the lock
	})
	m.Spawn("survivor", testStackBase+8192, func(th *Thread) {
		th.Load(insT, testRegionBase, 8) // give the crasher a head start
		th.Lock(insT, lock)
		th.Unlock(insT, lock)
		done = true
	})
	// Run the crasher first, then the survivor.
	sched := FuncScheduler(func(mm *Machine, last *Thread, ev Event) *Thread {
		r := mm.Runnable()
		if len(r) == 0 {
			return nil
		}
		for _, th := range r {
			if th.ID == 0 {
				return th
			}
		}
		return r[0]
	})
	if err := m.Run(sched, 0); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !done {
		t.Fatal("survivor never acquired the crashed thread's lock")
	}
	if len(m.Faults()) != 1 {
		t.Fatalf("faults: %v", m.Faults())
	}
}

func TestResetRuntimeClearsState(t *testing.T) {
	m := newTestMachine()
	m.Mem.Write(testRegionBase, 8, 1)
	snap := m.Mem.Snapshot()
	var tr trace.Trace
	m.SetTrace(&tr)
	_ = runOne(m, func(th *Thread) {
		th.Lock(insT, testRegionBase+0x800)
		th.Store(insT, testRegionBase, 8, 99)
	}) // thread finishes holding the lock... it exits with lock held? no: Done releases via releaseDead
	m.ResetRuntime()
	if len(m.Threads()) != 0 {
		t.Fatal("threads survive reset")
	}
	if len(m.Console.Lines()) != 0 {
		t.Fatal("console survives reset")
	}
	if len(m.Faults()) != 0 {
		t.Fatal("faults survive reset")
	}
	m.Mem.Restore(snap)
	if m.Mem.Read(testRegionBase, 8) != 1 {
		t.Fatal("restore after reset broken")
	}
	// The machine is reusable after a reset.
	if err := runOne(m, func(th *Thread) {
		th.Store(insT, testRegionBase, 8, 2)
	}); err != nil {
		t.Fatal(err)
	}
}

func TestConsoleHelpers(t *testing.T) {
	var c Console
	c.Printf("hello %d", 42)
	c.Printf("world")
	if !c.Contains("hello 42") || c.Contains("absent") {
		t.Fatal("Contains wrong")
	}
	if c.String() != "hello 42\nworld" {
		t.Fatalf("String: %q", c.String())
	}
	c.Reset()
	if len(c.Lines()) != 0 {
		t.Fatal("reset failed")
	}
}

func TestRegionOf(t *testing.T) {
	m := newTestMachine()
	r, ok := m.Mem.RegionOf(testRegionBase + 5)
	if !ok || r.Name != "test" {
		t.Fatalf("RegionOf: %+v %v", r, ok)
	}
	if _, ok := m.Mem.RegionOf(0x10); ok {
		t.Fatal("null page has a region")
	}
}

func TestRunnableAndAllDone(t *testing.T) {
	m := newTestMachine()
	m.Spawn("a", testStackBase, func(th *Thread) {
		th.Load(insT, testRegionBase, 8)
	})
	if m.AllDone() {
		t.Fatal("AllDone before running")
	}
	if len(m.Runnable()) != 1 {
		t.Fatal("spawned thread not runnable")
	}
	if err := m.Run(SeqScheduler{}, 0); err != nil {
		t.Fatal(err)
	}
	if !m.AllDone() || len(m.Runnable()) != 0 {
		t.Fatal("AllDone/Runnable after completion wrong")
	}
}

func TestSchedulerStopsRun(t *testing.T) {
	m := newTestMachine()
	m.Spawn("a", testStackBase, func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.Load(insT, testRegionBase, 8)
		}
	})
	picked := 0
	sched := FuncScheduler(func(mm *Machine, last *Thread, ev Event) *Thread {
		picked++
		if picked > 5 {
			return nil // scheduler-initiated stop
		}
		return mm.Runnable()[0]
	})
	if err := m.Run(sched, 0); err != nil {
		t.Fatalf("run: %v", err)
	}
	if m.AllDone() {
		t.Fatal("thread finished despite early stop")
	}
	m.Shutdown()
}

func TestPagesAccounting(t *testing.T) {
	m := newTestMachine()
	before := m.Mem.Pages()
	m.Mem.Write(testRegionBase+10*PageSize, 1, 1)
	if m.Mem.Pages() != before+1 {
		t.Fatalf("pages: %d -> %d", before, m.Mem.Pages())
	}
}

// watchSink is consulted where its Watch says and writes down what it was
// told; it moves its deadline on after each call it gets, the way a policy
// re-arms, and never preempts.
type watchSink struct {
	SeqScheduler
	watch Watch
	every int // deadline distance
	got   []AccessInfo
}

func (s *watchSink) Watch() *Watch { return &s.watch }

func (s *watchSink) OnAccess(m *Machine, t *Thread, a AccessInfo) bool {
	s.got = append(s.got, a)
	s.watch.Deadline = a.Index + s.every
	if m.AccessIndex() != a.Index+1 {
		panic("AccessIndex is not the next access's index")
	}
	return false
}

// TestSinkWatch pins the AccessSink contract: a sink is shown the accesses
// at the sites of its Watch and the access at its deadline, a Watch
// changed from OnAccess holds from the next access, and Index and Prev
// account for the accesses it was not shown — the stack ones included in
// the one, skipped by the other.
func TestSinkWatch(t *testing.T) {
	watched, other := trace.DefIns("vm_test:watched"), trace.DefIns("vm_test:other")
	m := newTestMachine()
	defer m.Close()
	m.Spawn("t", testStackBase, func(th *Thread) {
		fp := th.PushFrame(8)
		for i := uint64(0); i < 4; i++ {
			th.Load(other, testRegionBase+8*i, 8) // index 4i
			th.Store(other, fp, 8, i)             // 4i+1, to the stack
			th.Load(watched, testRegionBase+0x100+8*i, 4)
			th.Store(other, fp, 8, i)
		}
	})
	s := &watchSink{every: 2}
	for i := uint64(0); i < 4; i++ {
		s.watch.Sites.Add(watched, testRegionBase+0x100+8*i)
	}
	s.watch.Deadline = 1
	if err := m.Run(s, 0); err != nil {
		t.Fatal(err)
	}
	// The deadline at 1; the watched loads at 2, 6, 10, 14, each putting the
	// deadline on the load after it, which puts it on the next watched one.
	var at []int
	for _, a := range s.got {
		at = append(at, a.Index)
		want := AccessSite{Addr: testRegionBase + 8*uint64(a.Index/4), Ins: other, Kind: trace.Read, Size: 8}
		if a.Index%4 == 0 { // the watched load, a stack store back
			want = AccessSite{Addr: testRegionBase + 0x100 + 8*uint64(a.Index/4-1), Ins: watched, Kind: trace.Read, Size: 4}
		}
		if a.Prev != want {
			t.Fatalf("access %d: previous non-stack access %+v, want %+v", a.Index, a.Prev, want)
		}
	}
	if want := []int{1, 2, 4, 6, 8, 10, 12, 14}; !slices.Equal(at, want) {
		t.Fatalf("shown accesses %v, want %v", at, want)
	}
}
