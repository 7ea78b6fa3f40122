package vm

import "math"

// SeqScheduler runs threads strictly one after another in spawn order: the
// current thread keeps running until it finishes or blocks. This is the
// policy used for sequential test profiling (§4.1), where each test executes
// alone from the fixed snapshot. If the current thread blocks, control moves
// to the next runnable thread (which models the profiled thread waiting on
// background kernel work).
type SeqScheduler struct{}

// Pick implements Scheduler.
func (SeqScheduler) Pick(m *Machine, last *Thread, ev Event) *Thread {
	if last != nil && last.state == Runnable {
		return last
	}
	for _, t := range m.threads {
		if t.state == Runnable {
			return t
		}
	}
	return nil
}

// OnAccess implements AccessSink. Sequential profiling never preempts on an
// access, so the running thread just keeps going: the entire profiling run
// proceeds without per-access switches.
func (SeqScheduler) OnAccess(m *Machine, t *Thread, a AccessInfo) bool { return false }

// Watch implements AccessSink: with the same answer for every access, there
// is none to ask about.
func (SeqScheduler) Watch() *Watch { return &watchNothing }

var watchNothing = Watch{Deadline: math.MaxInt} // read only

// FuncScheduler adapts a function to the Scheduler interface, convenient in
// tests.
type FuncScheduler func(m *Machine, last *Thread, ev Event) *Thread

// Pick implements Scheduler.
func (f FuncScheduler) Pick(m *Machine, last *Thread, ev Event) *Thread {
	return f(m, last, ev)
}
