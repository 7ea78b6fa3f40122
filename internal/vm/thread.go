package vm

import (
	"fmt"
	"slices"

	"snowboard/internal/trace"
)

// ThreadState is the scheduling state of a simulated kernel thread.
type ThreadState uint8

const (
	// Runnable threads may be picked by the scheduler.
	Runnable ThreadState = iota
	// BlockedLock threads wait for a lock word to be released.
	BlockedLock
	// Done threads have finished (normally or by fault).
	Done
)

// EventKind classifies what a thread reported back to the machine when it
// yielded.
type EventKind uint8

const (
	// EvStart is the synthetic event passed to the scheduler's first Pick.
	EvStart EventKind = iota
	// EvAccess reports one completed memory access; the scheduler may
	// switch threads here, which is the paper's yield primitive placed
	// "right before every instruction ... after a memory access" (§4.4).
	EvAccess
	// EvBlocked reports that the thread cannot make progress (lock held);
	// the scheduler must pick another thread.
	EvBlocked
	// EvYield is a voluntary pause (HALT/PAUSE-style), a low-liveness hint.
	EvYield
	// EvDone reports normal completion of the thread body.
	EvDone
	// EvFault reports a kernel bug: invalid access or explicit kernel BUG().
	EvFault
)

// Event is what the scheduler is told a thread yielded with: its kind and
// nothing else. An EvAccess carries no access — a sink was shown it in
// OnAccess, and any other scheduler reads it from Machine.LastAccess — and
// an EvFault's message is on the console and in Machine.Faults.
type Event struct {
	Kind EventKind
}

// threadKilled is panicked through a thread body to unwind it when the
// machine shuts down a run early.
type threadKilled struct{}

// threadFault unwinds a thread body after a simulated kernel crash.
type threadFault struct{ msg string }

// Thread is one simulated kernel thread (the kernel side of a vCPU). Its
// body runs on the coroutine of its slot (see vcpu), and at most one body
// executes at any moment: the machine loop and the bodies switch to each
// other directly and never run side by side, so the simulation is fully
// deterministic and free of host-level data races.
type Thread struct {
	ID   int
	Name string

	m      *Machine
	cpu    *vcpu
	state  ThreadState
	waitOn Addr // lock address when BlockedLock
	killed bool

	stackLo Addr // kernel stack region [stackLo, stackLo+trace.StackSize)
	sp      Addr // current stack pointer (grows down)

	meta     trace.Meta // the bits of every row it records: its id, and MetaRCU while rcuDepth > 0
	rcuDepth int

	prev AccessSite // the latest access off the stack (AccessInfo.Prev); Size 0 if none
}

// yield switches to the machine loop and returns when the thread is
// resumed. A killed thread unwinds instead, and keeps unwinding if a
// deferred call of its body gets here again.
func (t *Thread) yield(ev EventKind) {
	if t.killed || !t.cpu.yield(ev) || t.killed {
		panic(threadKilled{})
	}
}

// Fault terminates the thread with a simulated kernel crash. The message is
// written to the console by the machine (prefixed like a kernel oops).
func (t *Thread) Fault(format string, args ...any) {
	panic(threadFault{msg: fmt.Sprintf(format, args...)})
}

// checkRange faults as the kernel would on an invalid access. For one
// inside a page it returns that page, and pageFor refills the TLB from the
// region the check found; for one across a page border, nil.
func (t *Thread) checkRange(addr Addr, size int, forWrite bool) *page {
	if size <= 0 || size > 8 {
		t.Fault("BUG: invalid access size %d at %#x", size, addr)
	}
	r := t.m.Mem.region(addr)
	if r == nil || addr+uint64(size) > r.Hi {
		if addr < PageSize {
			t.Fault("BUG: kernel NULL pointer dereference, address: %#016x", addr)
		}
		t.Fault("BUG: unable to handle page fault for address: %#016x", addr)
	}
	if addr%PageSize > PageSize-8 {
		return nil
	}
	return t.m.Mem.pageFor(addr, forWrite, r)
}

// load reads the size bytes at addr. A TLB hit answers validity and
// translation at once; a miss checks the range, faulting as the kernel
// would, and reads through the page table, which refills the entry.
func (t *Thread) load(addr Addr, size int) uint64 {
	mem := t.m.Mem
	p := mem.tlbPage(addr, size)
	if p == nil {
		if p = t.checkRange(addr, size, false); p == nil {
			return mem.Read(addr, size)
		}
	}
	return loadWord(p, addr%PageSize, size)
}

// store writes the low size bytes of val at addr: in place on a TLB hit
// for a page this memory owns, otherwise checked, and through the page
// table, which copies a shared page first and refills the entry.
func (t *Thread) store(addr Addr, size int, val uint64) {
	mem := t.m.Mem
	p := mem.tlbPage(addr, size)
	if p == nil || p.owner != mem {
		if p = t.checkRange(addr, size, true); p == nil {
			mem.Write(addr, size, val)
			return
		}
	}
	storeWord(p, addr%PageSize, size, val)
}

// record is the access hot path. It appends one row to the trace (zero
// allocations once the block is warm), counts the access against the run's
// step budget, and consults the scheduler's AccessSink if it has one and
// watches this access: unless the sink requests a preemption, control never
// leaves this coroutine — no Event, not even the access's row value, is
// built and no switch happens. What the sink will ask about the accesses it
// was not shown — how many, this thread's last off its stack — is kept here.
// A preemption yields only its kind; only a scheduler without a sink, which
// is shown no access otherwise, has the row kept for it (LastAccess).
//
// flags are the access's own meta bits: trace.MetaWrite, MetaAtomic and
// MetaMarked as they apply.
func (t *Thread) record(ins trace.Ins, addr Addr, size int, val uint64, flags trace.Meta) {
	m := t.m
	meta := t.meta | flags | trace.Meta(size)
	stack := addr >= t.stackLo && addr < t.stackLo+trace.StackSize
	if stack {
		meta |= trace.MetaStack
	}
	if m.trace != nil {
		m.trace.Record(ins, addr, val, meta)
	}
	kind := meta.Kind()
	m.steps++ // safe: the machine loop is blocked in step() while we run
	if m.steps < m.runMax && m.sink != nil {
		idx, w := m.offered, m.watch
		m.offered++
		preempt := (w.Sites.Has(ins, addr) || idx >= w.Deadline) &&
			m.sink.OnAccess(m, t, AccessInfo{Ins: ins, Kind: kind, Addr: addr, Size: uint8(size), Stack: stack, Index: idx, Prev: t.prev})
		if !stack {
			t.prev = AccessSite{Addr: addr, Ins: ins, Kind: kind, Size: uint8(size)}
		}
		if !preempt {
			return // fast path: keep running, no switch
		}
	}
	if m.sink == nil {
		m.last = trace.Access{
			Thread: t.ID,
			Ins:    ins,
			Kind:   kind,
			Addr:   addr,
			Size:   uint8(size),
			Val:    val,
			Atomic: meta&trace.MetaAtomic != 0,
			Marked: meta&trace.MetaMarked != 0,
			Stack:  stack,
			RCU:    meta&trace.MetaRCU != 0,
		}
	}
	t.yield(EvAccess)
}

// Load reads size bytes at addr as a little-endian value and reports the
// access (with its instruction identity) to the tracer and scheduler.
func (t *Thread) Load(ins trace.Ins, addr Addr, size int) uint64 {
	v := t.load(addr, size)
	t.record(ins, addr, size, v, 0)
	return v
}

// Store writes the low size bytes of val at addr.
func (t *Thread) Store(ins trace.Ins, addr Addr, size int, val uint64) {
	t.store(addr, size, val)
	t.record(ins, addr, size, val, trace.MetaWrite)
}

// LoadMarked is an annotated load (READ_ONCE / rcu_dereference): it takes
// part in PMC analysis like any plain access, but the race detector treats
// a pair of marked accesses as intentionally concurrent, mirroring KCSAN.
func (t *Thread) LoadMarked(ins trace.Ins, addr Addr, size int) uint64 {
	v := t.load(addr, size)
	t.record(ins, addr, size, v, trace.MetaMarked)
	return v
}

// StoreMarked is an annotated store (WRITE_ONCE / rcu_assign_pointer).
func (t *Thread) StoreMarked(ins trace.Ins, addr Addr, size int, val uint64) {
	t.store(addr, size, val)
	t.record(ins, addr, size, val, trace.MetaWrite|trace.MetaMarked)
}

// CPURelax models a PAUSE/HALT-style instruction: a voluntary yield that the
// liveness heuristic (is_live, §4.4.1) treats as a low-liveness signal.
func (t *Thread) CPURelax() { t.yield(EvYield) }

// AtRest reports whether the thread holds nothing a fresh thread would not:
// its stack is empty, it holds no lock and it is outside every RCU
// read-side section. Between two calls of a user program a thread at rest
// is, but for guest memory, the thread Spawn makes, which is what lets a
// sequential run resume there (exec.Env.Resume).
func (t *Thread) AtRest() bool {
	return t.sp == t.stackLo+trace.StackSize && len(t.cpu.held) == 0 && t.rcuDepth == 0
}

// --- Stack ---

// PushFrame reserves size bytes of kernel stack and returns the frame base.
// Frame data accessed through the returned address is traced as stack
// accesses, exercising the ESP-based stack filter.
func (t *Thread) PushFrame(size int) Addr {
	sz := uint64((size + 7) &^ 7)
	if t.sp-sz < t.stackLo {
		t.Fault("BUG: kernel stack overflow on thread %d", t.ID)
	}
	t.sp -= sz
	return t.sp
}

// PopFrame releases the most recent size-byte frame.
func (t *Thread) PopFrame(size int) {
	sz := uint64((size + 7) &^ 7)
	t.sp += sz
	if t.sp > t.stackLo+trace.StackSize {
		t.Fault("BUG: kernel stack underflow on thread %d", t.ID)
	}
}

// --- Locks ---

// dropLock removes addr, which the thread holds, from its stack of held
// locks.
func (t *Thread) dropLock(addr Addr) {
	i := slices.Index(t.cpu.held, addr)
	t.cpu.held = slices.Delete(t.cpu.held, i, i+1)
}

// HoldsLock reports whether the thread currently holds the lock at addr.
func (t *Thread) HoldsLock(addr Addr) bool { return slices.Contains(t.cpu.held, addr) }

// Lock acquires the lock word at addr (spinlock and mutex behave identically
// under the serialized scheduler). Acquisition is a single atomic RMW event;
// when the lock is held by another thread, the caller blocks until a release
// wakes it. Recursive acquisition is a deadlock and faults immediately.
func (t *Thread) Lock(ins trace.Ins, addr Addr) {
	if t.HoldsLock(addr) {
		t.Fault("BUG: recursive lock at %#x (%s)", addr, ins.Name())
	}
	for {
		if t.load(addr, 8) == 0 {
			t.store(addr, 8, uint64(t.ID)+1)
			t.cpu.held = append(t.cpu.held, addr)
			t.record(ins, addr, 8, uint64(t.ID)+1, trace.MetaWrite|trace.MetaAtomic)
			return
		}
		// Contended: block until the holder releases.
		t.state = BlockedLock
		t.waitOn = addr
		t.yield(EvBlocked)
	}
}

// Unlock releases the lock at addr and wakes all waiters.
func (t *Thread) Unlock(ins trace.Ins, addr Addr) {
	if !t.HoldsLock(addr) {
		t.Fault("BUG: unlock of lock %#x not held (%s)", addr, ins.Name())
	}
	t.store(addr, 8, 0)
	t.dropLock(addr)
	t.m.wakeLockWaiters(addr)
	t.record(ins, addr, 8, 0, trace.MetaWrite|trace.MetaAtomic)
}

// --- RCU ---

// RCUReadLock enters an RCU read-side critical section. Sections nest.
func (t *Thread) RCUReadLock() {
	t.rcuDepth++
	t.meta |= trace.MetaRCU
}

// RCUReadUnlock leaves the innermost RCU read-side critical section.
func (t *Thread) RCUReadUnlock() {
	if t.rcuDepth == 0 {
		t.Fault("BUG: rcu_read_unlock without rcu_read_lock on thread %d", t.ID)
	}
	t.rcuDepth--
	if t.rcuDepth == 0 {
		t.meta &^= trace.MetaRCU
	}
}
