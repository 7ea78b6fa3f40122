package vm

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// vcpu is one thread slot of a machine: a coroutine that runs the bodies of
// the threads spawned into the slot, one per run, and lives across runs.
// The machine loop resumes it with next and the running body hands an event
// back with yield; iter.Pull makes each of those a direct switch between
// the two goroutines, without a trip through the Go scheduler, and keeping
// the coroutine across runs is what pays for creating it.
//
// Between runs the coroutine is parked in loop's yield and holds neither a
// thread nor its machine. Spawn arms it with the next thread; the first
// next after that starts the body. A thread that must not finish (Shutdown)
// is resumed with killed set and unwinds to the same parked state, so a
// slot is never lost. Only stop, from Machine.Close, ends the coroutine.
type vcpu struct {
	next  func() (EventKind, bool)
	stop  func()
	yield func(EventKind) bool // set once the coroutine has started

	// thread is the storage of the slot's current thread, refilled by
	// every Spawn into the slot.
	thread Thread

	// Armed by Spawn, taken by the coroutine when it starts the body.
	t  *Thread
	fn func(*Thread)

	// held is the stack of locks the slot's current thread holds, in
	// acquisition order. The storage belongs to the slot, so a trial's
	// threads allocate nothing to take locks.
	held []Addr

	// crash is a body's non-fault panic, re-raised by step on the
	// goroutine that called Run.
	crash *GuestPanic
	// fault is the message of the simulated kernel crash that ended the
	// body with EvFault, which step writes to the console.
	fault string
}

func newVCPU() *vcpu {
	c := &vcpu{}
	c.next, c.stop = iter.Pull(c.loop)
	return c
}

// loop is the coroutine: run the armed body, report its last event, park.
// An event crosses the switch as its kind alone.
func (c *vcpu) loop(yield func(EventKind) bool) {
	c.yield = yield
	for yield(c.run()) {
	}
}

// run executes the armed thread body and returns the event that ends it.
func (c *vcpu) run() (ev EventKind) {
	t, fn := c.t, c.fn
	c.t, c.fn = nil, nil
	defer func() {
		switch r := recover().(type) {
		case nil:
			ev = EvDone
		case threadKilled:
			// Unwound by Shutdown, which ignores the event.
		case threadFault:
			ev, c.fault = EvFault, r.msg
		default:
			c.crash = &GuestPanic{Thread: t.Name, Value: r, Stack: debug.Stack()}
		}
	}()
	fn(t)
	return
}

// GuestPanic is what Run panics with when a thread body panicked with
// anything but a simulated kernel fault: a bug in the guest code or in a
// scheduler's AccessSink, not in the guest kernel. It carries the stack of
// the panicking body, which is gone by the time the panic reaches Run's
// caller.
type GuestPanic struct {
	Thread string // name of the thread whose body panicked
	Value  any    // the value the body panicked with
	Stack  []byte // the body's stack at the panic
}

func (p *GuestPanic) Error() string {
	return fmt.Sprintf("vm: thread %s panicked: %v\n%s", p.Thread, p.Value, p.Stack)
}
