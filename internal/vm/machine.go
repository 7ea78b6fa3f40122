package vm

import (
	"errors"
	"fmt"

	"snowboard/internal/trace"
)

// Scheduler decides which thread runs next. Pick is called once before the
// first instruction (last == nil, ev.Kind == EvStart) and then after every
// event a thread yields. It must return a Runnable thread of the machine, or
// nil to stop the run early. This is the pluggable policy point: sequential
// profiling, Snowboard's Algorithm 2, the SKI baseline and random walk are
// all implementations of this interface.
type Scheduler interface {
	Pick(m *Machine, last *Thread, ev Event) *Thread
}

// AccessInfo is the compact access descriptor handed to AccessSink: the
// fields of trace.Access a scheduling policy can act on without forcing the
// thread to yield, and what the machine keeps about the accesses the sink
// was not shown.
type AccessInfo struct {
	Ins   trace.Ins
	Kind  trace.Kind
	Addr  uint64
	Size  uint8
	Stack bool

	// Index numbers, from 0, the accesses of the run made while its step
	// budget lasts: the ones a sink may be shown. Recorded flip and
	// preemption indices are in this numbering.
	Index int
	// Prev is the accessing thread's previous non-stack access; Size 0 if
	// it has made none.
	Prev AccessSite
}

// AccessSite is where and how an access touched memory.
type AccessSite struct {
	Addr uint64
	Ins  trace.Ins
	Kind trace.Kind
	Size uint8
}

// AccessSink is the scheduler fast path. A scheduler that implements it is
// asked about memory accesses synchronously, on the running thread's
// coroutine: OnAccess returning false means "keep running the same thread"
// and skips the switch back to the machine loop entirely; returning true
// falls back to a regular EvAccess yield so Pick can switch threads.
//
// The sink says where it can answer: Run takes its Watch once, and an access
// reaches OnAccess only if its site is in Watch.Sites or its Index has
// reached Watch.Deadline; on any other the thread just keeps running. The
// machine reads the Watch afresh at every access, so a sink changes it in
// place, from OnAccess or Pick, and the change holds from the next access.
type AccessSink interface {
	OnAccess(m *Machine, t *Thread, a AccessInfo) bool
	Watch() *Watch
}

// Watch is the set of accesses a sink is asked about. The zero Watch is
// every access: no index is below its deadline.
type Watch struct {
	Sites    SiteSet // accesses by these instructions at these addresses
	Deadline int     // and every access from this index on
}

// SiteSet is a set of (instruction, address) pairs kept as a bitset over the
// low bits of instruction id plus 8-byte word number: a superset test. Ids
// are name hashes, so the few dozen sites a trial watches leave most of the
// bits clear, and a false hit costs the sink one call it answers false.
type SiteSet [SiteSetBits / 64]uint64

const SiteSetBits = 2048 // residues a SiteSet tells apart

// site returns the word and the bit of instruction i at addr.
func site(i trace.Ins, addr uint64) (int, uint64) {
	b := (uint64(i) + addr>>3) % SiteSetBits
	return int(b / 64), 1 << (b % 64)
}

// Add puts instruction i at addr in the set.
func (s *SiteSet) Add(i trace.Ins, addr uint64) { w, b := site(i, addr); s[w] |= b }

// Has reports whether i at addr, or a pair with its residue, is in the set.
func (s *SiteSet) Has(i trace.Ins, addr uint64) bool { w, b := site(i, addr); return s[w]&b != 0 }

// ErrStepLimit is returned by Run when the access budget is exhausted, the
// machine-level backstop behind the is_live heuristic.
var ErrStepLimit = errors.New("vm: step limit exceeded")

// ErrDeadlock is returned when unfinished threads exist but none is
// runnable (all blocked on locks).
var ErrDeadlock = errors.New("vm: deadlock: no runnable threads")

// Machine owns guest memory, the console, and the set of threads of one
// simulated kernel instance. Exactly one thread body executes at a time.
type Machine struct {
	Mem     *Memory
	Console *Console

	threads []*Thread
	cpus    []*vcpu // one coroutine per thread slot, kept across runs
	trace   *trace.Trace

	lockMemo trace.Shadow[lockEdge] // LockSet.With results, kept across runs

	sink     AccessSink   // scheduler fast path for the current Run, if any
	watch    *Watch       // the sink's, read at every access
	offered  int          // accesses of the current Run that were the sink's to see
	runMax   int          // step budget of the current Run
	last     trace.Access // the latest access yielded to a scheduler without a sink
	runnable []*Thread    // scratch buffer reused by Runnable

	steps  int
	faults []string
}

// NewMachine returns a machine with empty memory.
func NewMachine() *Machine {
	return &Machine{
		Mem:     NewMemory(),
		Console: &Console{},
	}
}

// lockEdge is one remembered LockSet.With: set extended by addr is with.
type lockEdge struct {
	set, with trace.LockSet
	addr      Addr
}

// lockWith is set.With(addr) through the machine's memo. Interned sets are
// process-wide and immutable, so an edge once learned holds for every later
// run, and a thread taking a lock reaches the process-wide intern table
// only the first time this machine sees the (set, lock) pair. Two pairs
// that hash alike evict each other, which costs a lookup and nothing else.
func (m *Machine) lockWith(set trace.LockSet, addr Addr) trace.LockSet {
	e := m.lockMemo.Slot(uint64(set)<<40 ^ addr)
	if e.with == 0 || e.set != set || e.addr != addr {
		*e = lockEdge{set: set, with: set.With(addr), addr: addr}
	}
	return e.with
}

// wakeLockWaiters makes runnable every thread blocked on the lock at addr.
func (m *Machine) wakeLockWaiters(addr Addr) {
	for _, w := range m.threads {
		if w.state == BlockedLock && w.waitOn == addr {
			w.state = Runnable
			w.waitOn = 0
		}
	}
}

// SetTrace installs the destination for access records; nil disables
// tracing.
func (m *Machine) SetTrace(tr *trace.Trace) { m.trace = tr }

// Steps returns the number of events processed by the last Run.
func (m *Machine) Steps() int { return m.steps }

// AccessIndex returns the AccessInfo.Index of the current Run's next access.
func (m *Machine) AccessIndex() int { return m.offered }

// Faults returns the kernel crash messages raised during the last Run.
func (m *Machine) Faults() []string { return m.faults }

// Runnable returns the threads currently in the Runnable state. The
// returned slice is a scratch buffer owned by the machine, overwritten by
// the next call — callers must not retain it across scheduling events.
func (m *Machine) Runnable() []*Thread {
	out := m.runnable[:0]
	for _, t := range m.threads {
		if t.state == Runnable {
			out = append(out, t)
		}
	}
	m.runnable = out
	return out
}

// AllDone reports whether every spawned thread has finished.
func (m *Machine) AllDone() bool {
	for _, t := range m.threads {
		if t.state != Done {
			return false
		}
	}
	return true
}

// Spawn starts a thread whose body is fn, with an 8KB kernel stack carved
// at stackBase (which must be trace.StackSize aligned and inside a valid
// region). The thread does not run until the scheduler picks it. Its body
// runs on the coroutine of its slot, which the machine keeps until Close,
// and the Thread itself is the slot's too: the pointer is valid until the
// next Spawn into the slot, after a Shutdown or ResetRuntime — callers must
// not retain it across runs.
func (m *Machine) Spawn(name string, stackBase Addr, fn func(*Thread)) *Thread {
	if stackBase%trace.StackSize != 0 {
		panic(fmt.Sprintf("vm: stack base %#x not %d-aligned", stackBase, trace.StackSize))
	}
	id := len(m.threads)
	if id == len(m.cpus) {
		m.cpus = append(m.cpus, newVCPU())
	}
	cpu := m.cpus[id]
	t := &cpu.thread
	*t = Thread{
		ID:      id,
		Name:    name,
		m:       m,
		cpu:     cpu,
		state:   Runnable,
		stackLo: stackBase,
		sp:      stackBase + trace.StackSize,
	}
	cpu.t, cpu.fn, cpu.held = t, fn, cpu.held[:0]
	m.threads = append(m.threads, t)
	return t
}

// resume switches to thread t's coroutine until the body's next event. A
// body that panicked with anything but a kernel fault is gone by then, its
// coroutine parked; the panic is re-raised here, on the goroutine driving
// the machine, and the other threads stay where they are until Shutdown.
func (m *Machine) resume(t *Thread) EventKind {
	ev, _ := t.cpu.next()
	if p := t.cpu.crash; p != nil {
		t.cpu.crash = nil
		t.state = Done
		panic(p)
	}
	return ev
}

// step resumes thread t until its next event and applies the event's state
// transition.
func (m *Machine) step(t *Thread) Event {
	ev := Event{Kind: m.resume(t)}
	switch ev.Kind {
	case EvDone:
		t.state = Done
		m.releaseDead(t)
	case EvFault:
		t.state = Done
		m.faults = append(m.faults, t.cpu.fault)
		m.Console.Printf("%s", t.cpu.fault)
		m.Console.Printf("CPU: %d PID: %d Comm: %s", t.ID, 100+t.ID, t.Name)
		m.Console.Printf("---[ end trace %016x ]---", uint64(t.ID+1)*0x9e3779b97f4a7c15)
		m.releaseDead(t)
	}
	return ev
}

// releaseDead force-releases the locks held by a finished thread so the
// sibling thread can still run (mirrors a crashed CPU being
// fenced off; without this every fault would cascade into a deadlock).
func (m *Machine) releaseDead(t *Thread) {
	for _, h := range t.cpu.held {
		m.Mem.Write(h.addr, 8, 0)
		m.wakeLockWaiters(h.addr)
	}
	t.locks, t.cpu.held = 0, t.cpu.held[:0]
}

// Run drives threads under the scheduler until all threads finish, the
// scheduler returns nil, maxSteps events are processed, or no thread is
// runnable. maxSteps <= 0 means a generous default of 1<<22.
//
// If the scheduler also implements AccessSink, the accesses it watches are
// reported through OnAccess on the running thread's coroutine; the thread
// only yields back to this loop when the sink asks for a preemption (or the
// step budget runs out), so uninterrupted stretches of accesses cost no
// switches at all. Step accounting is identical either way: every access is
// counted exactly once (by record), every other event once (here).
//
// A thread body that panics with anything but a kernel fault makes Run
// panic with a *GuestPanic on the caller's goroutine; the machine stays
// usable (ResetRuntime, then Spawn).
func (m *Machine) Run(s Scheduler, maxSteps int) error {
	if maxSteps <= 0 {
		maxSteps = 1 << 22
	}
	m.steps = 0
	m.runMax = maxSteps
	m.offered = 0
	if sink, ok := s.(AccessSink); ok {
		m.sink, m.watch = sink, sink.Watch()
		defer func() { m.sink, m.watch = nil, nil }()
	}
	ev := Event{Kind: EvStart}
	var last *Thread
	for {
		if m.AllDone() {
			return nil
		}
		if len(m.Runnable()) == 0 {
			return ErrDeadlock
		}
		t := s.Pick(m, last, ev)
		if t == nil {
			return nil
		}
		if t.state != Runnable {
			panic(fmt.Sprintf("vm: scheduler picked non-runnable thread %d (%v)", t.ID, t.state))
		}
		ev = m.step(t)
		last = t
		if ev.Kind != EvAccess {
			m.steps++ // accesses were already counted by record
		}
		if m.steps >= maxSteps {
			return ErrStepLimit
		}
	}
}

// LastAccess returns the access behind the latest EvAccess of a Run whose
// scheduler is not an AccessSink: what its Pick reads about the access it
// is called after. A sink is shown its accesses in OnAccess, and under one
// the value is not kept.
func (m *Machine) LastAccess() trace.Access { return m.last }

// Shutdown ends every unfinished thread and leaves all slots parked for the
// next Spawn. It must be called when a Run ends early (step limit,
// deadlock, scheduler stop) before new threads are spawned. A thread that
// has run is resumed once with killed set and unwinds its body; one that
// never ran is just disarmed.
func (m *Machine) Shutdown() {
	for _, t := range m.threads {
		if t.state == Done {
			continue
		}
		t.state = Done
		if t.cpu.t == t { // never resumed: the slot still holds its body
			t.cpu.t, t.cpu.fn = nil, nil
		} else {
			t.killed = true
			m.resume(t)
		}
	}
	m.threads = m.threads[:0]
}

// Close shuts the machine down and stops its parked coroutines. A machine
// that has run threads must be closed before it is dropped, otherwise its
// coroutines — goroutines, to the runtime — stay parked forever. Close is
// idempotent, and a closed machine starts new coroutines if it is used
// again.
func (m *Machine) Close() {
	m.Shutdown()
	for _, c := range m.cpus {
		c.stop()
	}
	m.cpus = nil
}

// ResetRuntime clears thread and synchronization state (but not memory),
// preparing the machine for a fresh set of threads after a snapshot restore.
func (m *Machine) ResetRuntime() {
	m.Shutdown()
	m.faults = nil
	m.steps = 0
	m.Console.Reset()
}
