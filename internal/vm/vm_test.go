package vm

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"snowboard/internal/trace"
)

const (
	testRegionBase = 0x10000
	testRegionSize = 1 << 20
	testStackBase  = 0x200000 // must be 8K aligned
)

func newTestMachine() *Machine {
	m := NewMachine()
	m.Mem.AddRegion("test", testRegionBase, testRegionBase+testRegionSize)
	m.Mem.AddRegion("stacks", testStackBase, testStackBase+8*8192)
	return m
}

var insT = trace.DefIns("vm_test:op")

func TestMemoryReadWriteRoundtrip(t *testing.T) {
	m := newTestMachine()
	f := func(off uint32, sizeSeed uint8, val uint64) bool {
		size := int(sizeSeed%8) + 1
		addr := testRegionBase + uint64(off)%(testRegionSize-8)
		masked := val & ((1 << (8 * uint(size))) - 1)
		m.Mem.Write(addr, size, val)
		return m.Mem.Read(addr, size) == masked
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryCrossPage(t *testing.T) {
	m := newTestMachine()
	addr := uint64(testRegionBase + PageSize - 3) // straddles a page boundary
	m.Mem.Write(addr, 8, 0xAABBCCDDEEFF1122)
	if got := m.Mem.Read(addr, 8); got != 0xAABBCCDDEEFF1122 {
		t.Fatalf("cross-page read %#x", got)
	}
}

func TestMemoryBytes(t *testing.T) {
	m := newTestMachine()
	data := []byte{1, 2, 3, 4, 5}
	m.Mem.WriteBytes(testRegionBase+100, data)
	got := make([]byte, 5)
	m.Mem.read(testRegionBase+100, got)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d: %d != %d", i, got[i], data[i])
		}
	}
}

func TestRegionOverlapPanics(t *testing.T) {
	m := newTestMachine()
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping region accepted")
		}
	}()
	m.Mem.AddRegion("overlap", testRegionBase+100, testRegionBase+200)
}

func TestValid(t *testing.T) {
	m := newTestMachine()
	if m.Mem.Valid(testRegionBase-1, 1) {
		t.Fatal("below region valid")
	}
	if !m.Mem.Valid(testRegionBase, 8) {
		t.Fatal("region start invalid")
	}
	if m.Mem.Valid(testRegionBase+testRegionSize-4, 8) {
		t.Fatal("range crossing region end valid")
	}
	if m.Mem.Valid(0, 8) {
		t.Fatal("null page valid")
	}
}

func TestSnapshotCopyOnWrite(t *testing.T) {
	m := newTestMachine()
	m.Mem.Write(testRegionBase, 8, 111)
	snap := m.Mem.Snapshot()

	m.Mem.Write(testRegionBase, 8, 222)
	if got := m.Mem.Read(testRegionBase, 8); got != 222 {
		t.Fatalf("live value %d", got)
	}
	m.Mem.Restore(snap)
	if got := m.Mem.Read(testRegionBase, 8); got != 111 {
		t.Fatalf("restored value %d, snapshot was mutated", got)
	}

	// A second mutation/restore cycle must also be isolated.
	m.Mem.Write(testRegionBase, 8, 333)
	m.Mem.Restore(snap)
	if got := m.Mem.Read(testRegionBase, 8); got != 111 {
		t.Fatal("second restore broken")
	}
}

func TestSnapshotChain(t *testing.T) {
	m := newTestMachine()
	m.Mem.Write(testRegionBase, 8, 1)
	s1 := m.Mem.Snapshot()
	m.Mem.Write(testRegionBase, 8, 2)
	s2 := m.Mem.Snapshot()
	m.Mem.Write(testRegionBase, 8, 3)

	m.Mem.Restore(s1)
	if m.Mem.Read(testRegionBase, 8) != 1 {
		t.Fatal("s1 wrong")
	}
	m.Mem.Restore(s2)
	if m.Mem.Read(testRegionBase, 8) != 2 {
		t.Fatal("s2 wrong")
	}
}

func runOne(m *Machine, fn func(*Thread)) error {
	m.Spawn("t0", testStackBase, fn)
	return m.Run(SeqScheduler{}, 0)
}

func TestThreadLoadStore(t *testing.T) {
	m := newTestMachine()
	var tr trace.Trace
	m.SetTrace(&tr)
	err := runOne(m, func(th *Thread) {
		th.Store(insT, testRegionBase, 8, 42)
		if v := th.Load(insT, testRegionBase, 8); v != 42 {
			t.Errorf("load %d", v)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("trace has %d accesses", tr.Len())
	}
	if tr.At(0).Kind != trace.Write || tr.At(1).Kind != trace.Read {
		t.Fatal("trace kinds wrong")
	}
}

func TestNullDereferenceFaults(t *testing.T) {
	m := newTestMachine()
	err := runOne(m, func(th *Thread) {
		th.Load(insT, 0x10, 8)
		t.Error("unreachable after fault")
	})
	if err != nil {
		t.Fatalf("run error: %v", err)
	}
	if len(m.Faults()) != 1 {
		t.Fatalf("faults: %v", m.Faults())
	}
	if !strings.Contains(m.Console.String(), "NULL pointer dereference") {
		t.Fatalf("console: %v", m.Console.Lines())
	}
}

func TestUnmappedFaults(t *testing.T) {
	m := newTestMachine()
	_ = runOne(m, func(th *Thread) {
		th.Store(insT, 0xdead0000, 8, 1)
	})
	if !strings.Contains(m.Console.String(), "unable to handle page fault") {
		t.Fatalf("console: %v", m.Console.Lines())
	}
}

func TestLockMutualExclusion(t *testing.T) {
	m := newTestMachine()
	lock := uint64(testRegionBase + 0x800)
	counter := uint64(testRegionBase + 0x900)
	body := func(th *Thread) {
		for i := 0; i < 10; i++ {
			th.Lock(insT, lock)
			v := th.Load(insT, counter, 8)
			th.Store(insT, counter, 8, v+1)
			th.Unlock(insT, lock)
		}
	}
	m.Spawn("a", testStackBase, body)
	m.Spawn("b", testStackBase+8192, body)
	// Adversarial: always switch threads after every event.
	sched := FuncScheduler(func(mm *Machine, last *Thread, ev Event) *Thread {
		r := mm.Runnable()
		if len(r) == 0 {
			return nil
		}
		for _, th := range r {
			if th != last {
				return th
			}
		}
		return r[0]
	})
	if err := m.Run(sched, 0); err != nil {
		t.Fatal(err)
	}
	if got := m.Mem.Read(counter, 8); got != 20 {
		t.Fatalf("counter %d, lock did not serialize", got)
	}
}

func TestRecursiveLockFaults(t *testing.T) {
	m := newTestMachine()
	lock := uint64(testRegionBase + 0x800)
	_ = runOne(m, func(th *Thread) {
		th.Lock(insT, lock)
		th.Lock(insT, lock)
	})
	if !strings.Contains(m.Console.String(), "recursive lock") {
		t.Fatalf("console: %v", m.Console.Lines())
	}
}

func TestUnlockNotHeldFaults(t *testing.T) {
	m := newTestMachine()
	_ = runOne(m, func(th *Thread) {
		th.Unlock(insT, testRegionBase+0x800)
	})
	if !strings.Contains(m.Console.String(), "unlock of lock") {
		t.Fatalf("console: %v", m.Console.Lines())
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := newTestMachine()
	l1 := uint64(testRegionBase + 0x800)
	l2 := uint64(testRegionBase + 0x900)
	gate := uint64(testRegionBase + 0xa00)
	m.Spawn("a", testStackBase, func(th *Thread) {
		th.Lock(insT, l1)
		th.Store(insT, gate, 8, 1)
		th.Lock(insT, l2)
	})
	m.Spawn("b", testStackBase+8192, func(th *Thread) {
		th.Lock(insT, l2)
		for th.Load(insT, gate, 8) == 0 {
			th.CPURelax()
		}
		th.Lock(insT, l1)
	})
	// Round-robin to interleave the acquisition order.
	i := 0
	sched := FuncScheduler(func(mm *Machine, last *Thread, ev Event) *Thread {
		r := mm.Runnable()
		if len(r) == 0 {
			return nil
		}
		i++
		return r[i%len(r)]
	})
	err := m.Run(sched, 0)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock", err)
	}
	m.Shutdown()
}

func TestStepLimit(t *testing.T) {
	m := newTestMachine()
	m.Spawn("spin", testStackBase, func(th *Thread) {
		for {
			th.Load(insT, testRegionBase, 8)
		}
	})
	err := m.Run(SeqScheduler{}, 100)
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("err = %v, want step limit", err)
	}
	m.Shutdown()
}

// spinTo runs one never-finishing thread on m up to the step limit.
func spinTo(m *Machine, steps int) {
	m.ResetRuntime()
	m.Spawn("spin", testStackBase, func(th *Thread) {
		for {
			th.Load(insT, testRegionBase, 8)
		}
	})
	_ = m.Run(SeqScheduler{}, steps)
}

// TestShutdownNoGoroutineLeak: a machine's coroutines are goroutines to the
// runtime. One machine keeps the same ones however many runs end early on
// it, and Close gives them back.
func TestShutdownNoGoroutineLeak(t *testing.T) {
	// The goroutine the previous test ran on may still be exiting: under
	// load it was counted here and gone by the next reading.
	before := runtime.NumGoroutine()
	for settled := false; !settled; {
		time.Sleep(time.Millisecond)
		settled, before = runtime.NumGoroutine() == before, runtime.NumGoroutine()
	}
	m := newTestMachine()
	spinTo(m, 50)
	held := runtime.NumGoroutine()
	if held <= before {
		t.Fatalf("goroutines %d -> %d: the thread body runs on no goroutine of its own?", before, held)
	}
	for i := 0; i < 20; i++ {
		spinTo(m, 50)
	}
	if n := runtime.NumGoroutine(); n != held {
		t.Fatalf("20 runs on one machine: goroutines %d -> %d", held, n)
	}
	m.Close()
	m.Close() // idempotent

	for i := 0; i < 20; i++ {
		m := newTestMachine()
		spinTo(m, 50)
		m.Close()
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("goroutines leaked past Close: %d -> %d", before, after)
	}

	// A closed machine is still a machine.
	if err := runOne(m, func(th *Thread) { th.Store(insT, testRegionBase, 8, 1) }); err != nil {
		t.Fatal(err)
	}
	m.Close()
}

// TestKillNeverStartedThread: Shutdown of a thread the scheduler never
// picked must not run its body, and the slot must take the next one.
func TestKillNeverStartedThread(t *testing.T) {
	m := newTestMachine()
	defer m.Close()
	ran := false
	m.Spawn("picked", testStackBase, func(th *Thread) { th.Load(insT, testRegionBase, 8) })
	m.Spawn("never", testStackBase+8192, func(th *Thread) { ran = true })
	first := FuncScheduler(func(mm *Machine, last *Thread, ev Event) *Thread {
		if th := mm.threads[0]; th.state == Runnable {
			return th
		}
		return nil // stop with thread 1 untouched
	})
	if err := m.Run(first, 0); err != nil {
		t.Fatal(err)
	}
	m.ResetRuntime()
	if ran {
		t.Fatal("Shutdown ran the body of a thread that was never picked")
	}
	// Same slots, new bodies: both must run theirs, not a stale one.
	var got [2]bool
	m.Spawn("a", testStackBase, func(th *Thread) { got[0] = true })
	m.Spawn("b", testStackBase+8192, func(th *Thread) { got[1] = true })
	if err := m.Run(SeqScheduler{}, 0); err != nil {
		t.Fatal(err)
	}
	if ran || got != [2]bool{true, true} {
		t.Fatalf("after reset: stale body ran=%v, new bodies ran=%v", ran, got)
	}
}

// TestKillParkedThread: Shutdown of a thread parked mid-body unwinds it —
// deferred calls run, even ones that access memory, nothing after the
// parking point does — and the slot takes the next body.
func TestKillParkedThread(t *testing.T) {
	m := newTestMachine()
	defer m.Close()
	var unwound, resumed bool
	m.Spawn("parked", testStackBase, func(th *Thread) {
		defer func() {
			unwound = true
			th.Store(insT, testRegionBase+8, 8, 1) // a killed thread must not park again
		}()
		th.CPURelax()
		resumed = true
	})
	once := FuncScheduler(func(mm *Machine, last *Thread, ev Event) *Thread {
		if last == nil {
			return mm.threads[0]
		}
		return nil
	})
	if err := m.Run(once, 0); err != nil {
		t.Fatal(err)
	}
	if unwound || m.AllDone() {
		t.Fatal("thread did not park at its yield")
	}
	m.Shutdown()
	if !unwound || resumed {
		t.Fatalf("kill: deferred ran=%v, body continued=%v", unwound, resumed)
	}
	ok := false
	if err := runOne(m, func(th *Thread) { ok = true }); err != nil || !ok {
		t.Fatalf("slot unusable after a kill: err=%v ran=%v", err, ok)
	}
}

// TestGuestPanicReachesRunCaller: a body that panics with anything but a
// kernel fault is a bug outside the guest kernel. It must surface on the
// goroutine that called Run, where callers can recover it, and leave the
// machine and every coroutine reusable.
func TestGuestPanicReachesRunCaller(t *testing.T) {
	m := newTestMachine()
	defer m.Close()
	m.Spawn("bystander", testStackBase, func(th *Thread) {
		th.CPURelax()
		th.CPURelax()
	})
	m.Spawn("buggy", testStackBase+8192, func(th *Thread) {
		th.Load(insT, testRegionBase, 8)
		panic("guest bug")
	})
	alternate := FuncScheduler(func(mm *Machine, last *Thread, ev Event) *Thread {
		r := mm.Runnable()
		if last != nil && len(r) == 2 {
			return r[1-last.ID]
		}
		return r[0]
	})
	goroutines := runtime.NumGoroutine()
	var got any
	func() {
		defer func() { got = recover() }()
		_ = m.Run(alternate, 0)
	}()
	gp, ok := got.(*GuestPanic)
	if !ok {
		t.Fatalf("Run panicked with %T (%v), want *GuestPanic", got, got)
	}
	if gp.Value != "guest bug" || gp.Thread != "buggy" {
		t.Fatalf("GuestPanic = thread %q value %v", gp.Thread, gp.Value)
	}
	if !strings.Contains(string(gp.Stack), "TestGuestPanicReachesRunCaller") {
		t.Fatalf("stack does not show the panicking body:\n%s", gp.Stack)
	}

	// The bystander is still parked mid-body; a reset kills it and both
	// slots run new bodies on the coroutines they had.
	m.ResetRuntime()
	n := 0
	body := func(th *Thread) { th.Load(insT, testRegionBase, 8); n++ }
	m.Spawn("a", testStackBase, body)
	m.Spawn("b", testStackBase+8192, body)
	if err := m.Run(alternate, 0); err != nil || n != 2 {
		t.Fatalf("after a guest panic: err=%v, %d of 2 bodies ran", err, n)
	}
	if g := runtime.NumGoroutine(); g != goroutines {
		t.Fatalf("goroutines %d -> %d: a coroutine was lost or replaced", goroutines, g)
	}
}

// TestSpawnAllocBudget: a warm Spawn + run + ResetRuntime cycle allocates
// the caller's closure and nothing else — the Thread is the slot's, and the
// coroutine, its stack and the machine's scratch are kept from the run
// before.
func TestSpawnAllocBudget(t *testing.T) {
	m := newTestMachine()
	defer m.Close()
	sum := uint64(0)
	cycle := func() {
		m.Spawn("t", testStackBase, func(th *Thread) { sum += th.Load(insT, testRegionBase, 8) })
		if err := m.Run(SeqScheduler{}, 0); err != nil {
			t.Fatal(err)
		}
		m.ResetRuntime()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 1 {
		t.Fatalf("warm Spawn+Run+ResetRuntime allocates %.0f objects, want ≤ 1 (the closure)", allocs)
	}
}

// TestSpawnReusesNeverResumedSlot: a thread that was spawned but never
// picked is disarmed by Shutdown, not unwound — and since a slot's Thread
// storage is refilled by every Spawn, the next thread in that slot is the
// same pointer. It must run its own body, and the old one never.
func TestSpawnReusesNeverResumedSlot(t *testing.T) {
	m := newTestMachine()
	defer m.Close()
	ran := ""
	first := m.Spawn("a", testStackBase, func(th *Thread) { ran += "a" })
	idle := m.Spawn("idle", testStackBase+8192, func(th *Thread) { ran += "idle" })
	onlyFirst := FuncScheduler(func(mm *Machine, last *Thread, ev Event) *Thread {
		if first.state == Runnable {
			return first
		}
		return nil
	})
	if err := m.Run(onlyFirst, 0); err != nil {
		t.Fatal(err)
	}
	m.Shutdown()
	if ran != "a" {
		t.Fatalf("bodies run before the second spawn: %q", ran)
	}

	m.Spawn("b", testStackBase, func(th *Thread) { ran += "b" })
	again := m.Spawn("c", testStackBase+8192, func(th *Thread) { ran += "c" })
	if again != idle {
		t.Fatal("the slot's Thread storage was not reused")
	}
	if again.Name != "c" || again.state != Runnable || again.killed {
		t.Fatalf("reused thread not reset: %+v", again)
	}
	if err := m.Run(SeqScheduler{}, 0); err != nil {
		t.Fatal(err)
	}
	if ran != "abc" {
		t.Fatalf("bodies run: %q, want a, then b and c", ran)
	}

	// The same after a thread that did run was killed mid-body.
	m.ResetRuntime()
	m.Spawn("spin", testStackBase, func(th *Thread) {
		for {
			th.Load(insT, testRegionBase, 8)
		}
	})
	if err := m.Run(SeqScheduler{}, 50); !errors.Is(err, ErrStepLimit) {
		t.Fatalf("err = %v, want step limit", err)
	}
	m.Shutdown()
	d := m.Spawn("d", testStackBase, func(th *Thread) { ran += "d" })
	if d.killed {
		t.Fatalf("thread spawned after a kill carries it: %+v", d)
	}
	if err := m.Run(SeqScheduler{}, 0); err != nil {
		t.Fatal(err)
	}
	if ran != "abcd" {
		t.Fatalf("bodies run: %q, want abcd", ran)
	}
}

func TestRCUUnbalancedUnlockFaults(t *testing.T) {
	m := newTestMachine()
	_ = runOne(m, func(th *Thread) {
		th.RCUReadUnlock()
	})
	if !strings.Contains(m.Console.String(), "rcu_read_unlock without") {
		t.Fatalf("console: %v", m.Console.Lines())
	}
}

func TestStackFrames(t *testing.T) {
	m := newTestMachine()
	var tr trace.Trace
	m.SetTrace(&tr)
	err := runOne(m, func(th *Thread) {
		sp0 := th.sp
		f := th.PushFrame(24)
		if th.sp != sp0-24 {
			t.Errorf("sp after push: %#x", th.sp)
		}
		th.Store(insT, f, 8, 7)
		if v := th.Load(insT, f, 8); v != 7 {
			t.Errorf("stack slot %d", v)
		}
		th.PopFrame(24)
		if th.sp != sp0 {
			t.Errorf("sp after pop: %#x", th.sp)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tr.Len(); i++ {
		if a := tr.At(i); !a.Stack {
			t.Fatalf("frame access not marked stack: %+v", a)
		}
	}
}

func TestStackOverflowFaults(t *testing.T) {
	m := newTestMachine()
	_ = runOne(m, func(th *Thread) {
		for {
			th.PushFrame(4096)
		}
	})
	if !strings.Contains(m.Console.String(), "stack overflow") {
		t.Fatalf("console: %v", m.Console.Lines())
	}
}

func TestLockWordValueVisible(t *testing.T) {
	// The lock word lives in guest memory: acquisitions store the holder,
	// releases store zero, and both appear in the trace as atomics.
	m := newTestMachine()
	var tr trace.Trace
	m.SetTrace(&tr)
	lock := uint64(testRegionBase + 0x800)
	_ = runOne(m, func(th *Thread) {
		th.Lock(insT, lock)
		th.Unlock(insT, lock)
	})
	if tr.Len() != 2 || !tr.At(0).Atomic || !tr.At(1).Atomic {
		t.Fatalf("lock traffic not atomic in trace: %+v", tr)
	}
	if tr.At(0).Val == 0 || tr.At(1).Val != 0 {
		t.Fatalf("lock word values wrong: %+v, %+v", tr.At(0), tr.At(1))
	}
}

// TestRecordAllocBudget is the allocation guard on the access hot path:
// with a warm (reused) trace block and a non-preempting scheduler, recording
// an access must not allocate. The budget is 0.1 allocs per access — an
// order of magnitude below the ~1 alloc/access the channel-per-access
// design cost — so any regression that reintroduces a per-access allocation
// fails loudly.
func TestRecordAllocBudget(t *testing.T) {
	const accessesPerRun = 4096
	var tr trace.Trace
	// Warm-up: size the block's rows and the machine's scratch buffers.
	warm := newTestMachine()
	warm.SetTrace(&tr)
	warm.Spawn("warm", testStackBase, func(th *Thread) {
		for i := 0; i < accessesPerRun; i++ {
			th.Store(insT, testRegionBase+uint64(i%256)*8, 8, uint64(i))
		}
	})
	if err := warm.Run(SeqScheduler{}, 0); err != nil {
		t.Fatal(err)
	}

	m := newTestMachine()
	m.SetTrace(&tr)
	allocs := testing.AllocsPerRun(10, func() {
		tr.Reset()
		m.ResetRuntime()
		m.Spawn("t0", testStackBase, func(th *Thread) {
			for i := 0; i < accessesPerRun; i++ {
				th.Store(insT, testRegionBase+uint64(i%256)*8, 8, uint64(i))
			}
		})
		if err := m.Run(SeqScheduler{}, 0); err != nil {
			t.Fatal(err)
		}
	})
	perAccess := allocs / accessesPerRun
	t.Logf("access hot path: %.4f allocs/access (%.0f allocs per %d-access run)", perAccess, allocs, accessesPerRun)
	if perAccess > 0.1 {
		t.Fatalf("access hot path allocates: %.3f allocs/access (%.0f allocs per %d-access run)",
			perAccess, allocs, accessesPerRun)
	}
}

func TestDeterministicExecution(t *testing.T) {
	run := func() *trace.Trace {
		m := newTestMachine()
		var tr trace.Trace
		m.SetTrace(&tr)
		lock := uint64(testRegionBase + 0x800)
		body := func(th *Thread) {
			for i := 0; i < 5; i++ {
				th.Lock(insT, lock)
				v := th.Load(insT, testRegionBase, 8)
				th.Store(insT, testRegionBase, 8, v+1)
				th.Unlock(insT, lock)
			}
		}
		m.Spawn("a", testStackBase, body)
		m.Spawn("b", testStackBase+8192, body)
		i := 0
		sched := FuncScheduler(func(mm *Machine, last *Thread, ev Event) *Thread {
			r := mm.Runnable()
			if len(r) == 0 {
				return nil
			}
			i++
			return r[i%len(r)]
		})
		if err := m.Run(sched, 0); err != nil {
			t.Fatal(err)
		}
		return &tr
	}
	a, b := run(), run()
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if x, y := a.At(i), b.At(i); x.Addr != y.Addr || x.Val != y.Val || x.Thread != y.Thread {
			t.Fatalf("access %d differs: %+v vs %+v", i, x, y)
		}
	}
}
