// Package exec is the test-execution framework of §3.1: it boots the
// simulated kernel, takes the fixed VM snapshot that every test starts
// from, and runs sequential tests (for profiling) or pairs of tests under a
// pluggable scheduler (for concurrent exploration). It plays the role of
// the paper's hypervisor/guest test-suite pair, with hypercalls replaced by
// direct calls.
package exec

import (
	"errors"
	"fmt"
	"slices"

	"snowboard/internal/corpus"
	"snowboard/internal/kernel"
	"snowboard/internal/obs"
	"snowboard/internal/trace"
	"snowboard/internal/vm"
)

// Execution metrics: one bump per VM run, aggregated step counts — cheap
// enough to stay on even in the profiling hot loop.
var (
	mRuns          = obs.C(obs.MExecRuns)
	mCrashes       = obs.C(obs.MExecCrashes)
	mSteps         = obs.C(obs.MExecSteps)
	mProfileTests  = obs.C(obs.MProfileTests)
	mProfileAccess = obs.C(obs.MProfileAccess)
)

// DefaultMaxSteps bounds one execution; hitting it is treated as a hang.
const DefaultMaxSteps = 1 << 20

// Env owns a machine with a booted kernel and the boot-time snapshot.
// An Env is single-goroutine: one test (or one concurrent pair) runs at a
// time, exactly like one emulated guest. Close it when done with it.
type Env struct {
	M    *vm.Machine
	K    *kernel.Kernel
	Snap *vm.Snapshot
	Cfg  kernel.Config

	// MaxSteps bounds each run; 0 uses DefaultMaxSteps.
	MaxSteps int

	slots   [kernel.MaxProcs]runSlot
	rets    [kernel.MaxProcs][]int64 // per-slot return values: Result.Rets
	profile trace.Trace              // Profile's recording, copied out by the filter

	states  States // call-boundary states of the programs Capture ran
	capture bool   // a Capture is running
}

// runSlot is what a run borrows for one thread slot instead of allocating
// it. Nothing in it outlives the next run on the Env.
type runSlot struct {
	prog  *corpus.Prog
	start int // the call the run of prog starts at: 0 but in Resume
	proc  kernel.Proc
	args  []uint64         // reused across calls: Invoke only reads it
	body  func(*vm.Thread) // runs prog as this slot's user process; made once
}

var executorNames = func() (names [kernel.MaxProcs]string) {
	for i := range names {
		names[i] = fmt.Sprintf("executor-%d", i)
	}
	return names
}()

// NewEnv boots a fresh simulated kernel and snapshots its initial state.
func NewEnv(cfg kernel.Config) *Env {
	m := vm.NewMachine()
	k := kernel.Boot(m, cfg)
	return &Env{M: m, K: k, Snap: m.Mem.Snapshot(), Cfg: k.Cfg}
}

// Clone returns an independent execution environment that starts every
// test from the same fixed snapshot as e. The snapshot is shared, not
// copied: snapshot pages are immutable (the VM copies on write), so any
// number of clones may run concurrently, one goroutine each. Booting is
// deterministic, so a clone's kernel has the same guest addresses as the
// original and produces bit-identical traces for the same test.
func (e *Env) Clone() *Env {
	m := vm.NewMachine()
	k := kernel.Boot(m, e.Cfg)
	m.Mem.Restore(e.Snap)
	return &Env{M: m, K: k, Snap: e.Snap, Cfg: e.Cfg, MaxSteps: e.MaxSteps}
}

// Close stops the machine's parked vCPU coroutines (vm.Machine.Close). An
// Env that has run a test and is dropped unclosed leaks them. Idempotent.
func (e *Env) Close() { e.M.Close() }

// Result summarizes one execution.
type Result struct {
	// Rets holds the per-thread syscall return values. It is storage of
	// the Env, valid until the next run on it — copy what must outlive that.
	Rets     [][]int64
	Faults   []string // kernel crash messages
	Console  []string // full console output
	Steps    int      // events processed
	Hung     bool     // step limit exceeded
	Deadlock bool     // all threads blocked
}

// Crashed reports whether the kernel crashed during the run.
func (r *Result) Crashed() bool { return len(r.Faults) > 0 }

func (e *Env) maxSteps() int {
	if e.MaxSteps > 0 {
		return e.MaxSteps
	}
	return DefaultMaxSteps
}

// prepare restores the snapshot and clears runtime state. It must be called
// before spawning the run's threads.
func (e *Env) prepare(tr *trace.Trace) {
	e.M.ResetRuntime()
	e.M.Mem.Restore(e.Snap)
	if tr != nil {
		tr.Reset()
	}
	e.M.SetTrace(tr)
}

// spawn arms thread and user slot i with prog, as a fresh process from its
// first call, for the run being prepared.
func (e *Env) spawn(i int, prog *corpus.Prog) {
	s := &e.slots[i]
	if s.body == nil {
		s.body = func(t *vm.Thread) { e.runProg(i, t) }
	}
	s.prog, s.start, e.rets[i] = prog, 0, e.rets[i][:0]
	s.proc.Reset(e.K, e.M.Spawn(executorNames[i], kernel.StackFor(i), s.body), i)
}

// runProg is the thread body: it executes slot i's program as user process
// i from the slot's start on, appending each call's return value to
// e.rets[i]. Under Capture it records the state at every call boundary.
func (e *Env) runProg(i int, t *vm.Thread) {
	s := &e.slots[i]
	for k := s.start; ; k++ {
		if e.capture {
			e.states.boundary(e.M, e.Snap, t, &s.proc)
		}
		if k == len(s.prog.Calls) {
			return
		}
		call := &s.prog.Calls[k]
		s.args = slices.Grow(s.args[:0], len(call.Args))[:len(call.Args)]
		args := s.args
		clear(args)
		for j, a := range call.Args {
			switch a.Kind {
			case corpus.ConstArg:
				args[j] = a.Val
			case corpus.ResultArg:
				if a.Ref >= 0 && a.Ref < len(e.rets[i]) {
					args[j] = uint64(e.rets[i][a.Ref])
				}
			}
		}
		e.rets[i] = append(e.rets[i], e.K.Invoke(&s.proc, call.Nr, args))
	}
}

// finish builds the Result of the run that just ended on the first n slots,
// which resumed a run that had made steps events and printed the lines
// console.
func (e *Env) finish(err error, n int, steps int, console []string) Result {
	r := Result{
		Rets:   e.rets[:n],
		Faults: append([]string(nil), e.M.Faults()...),
		Steps:  e.M.Steps(),
	}
	mRuns.Inc()
	mSteps.Add(int64(r.Steps - steps))
	if r.Crashed() {
		mCrashes.Inc()
		obs.Emit(obs.EvExecCrash, obs.A("faults", len(r.Faults)))
	}
	switch {
	case errors.Is(err, vm.ErrStepLimit):
		r.Hung = true
		e.M.Shutdown()
	case errors.Is(err, vm.ErrDeadlock):
		r.Deadlock = true
		e.M.Shutdown()
	}
	r.Console = append(append([]string(nil), console...), e.M.Console.Lines()...)
	return r
}

// RunSequential executes prog alone from the snapshot, recording its memory
// trace into tr (which may be nil to skip tracing). This is the profiling
// primitive of §4.1: the resume from the empty state.
func (e *Env) RunSequential(prog *corpus.Prog, tr *trace.Trace) Result {
	return e.Resume(prog, State{}, tr)
}

// Resume executes prog alone from the call boundary from, a state of a
// program whose first from.Calls calls are prog's (States.Latest), and
// returns the Result the whole run from the snapshot would: the prefix's
// return values, console lines and steps included. tr receives only the
// rows of the calls from from.Calls on.
//
// Nothing is forked or replayed but memory: the snapshot is restored, the
// words the prefix changed are stored over it, and a fresh thread starts
// at call from.Calls with the prefix's descriptor table and return values.
// At a boundary where the thread was at rest that is the state the whole
// run has there, so the rest of the run, deterministic, is the same
// (DESIGN row 78).
func (e *Env) Resume(prog *corpus.Prog, from State, tr *trace.Trace) Result {
	e.prepare(tr)
	for _, w := range from.words {
		e.M.Mem.Write(w.addr, 8, w.val)
	}
	e.spawn(0, prog)
	s := &e.slots[0]
	s.start, e.rets[0] = from.Calls, append(e.rets[0], from.rets...)
	s.proc.SetFDs(from.fds)
	err := e.M.RunFrom(vm.SeqScheduler{}, from.Steps, e.maxSteps())
	return e.finish(err, 1, from.Steps, from.console)
}

// RunPair executes writer and reader concurrently from the snapshot under
// the supplied scheduler: writer on thread 0 / user slot 0, reader on
// thread 1 / user slot 1, matching the paper's two test-executor vCPUs.
func (e *Env) RunPair(writer, reader *corpus.Prog, sched vm.Scheduler, tr *trace.Trace) Result {
	e.prepare(tr)
	e.spawn(0, writer)
	e.spawn(1, reader)
	err := e.M.Run(sched, e.maxSteps())
	return e.finish(err, 2, 0, nil)
}

// Profile runs prog sequentially and returns its shared-memory access set:
// the trace filtered to the executor thread's non-stack, non-lock-word
// accesses (§4.1.1), plus the double-fetch leader markings used by
// S-CH-DOUBLE.
func (e *Env) Profile(prog *corpus.Prog) (accs trace.Block, df map[int]bool, res Result) {
	tr := &e.profile
	res = e.RunSequential(prog, tr)
	accs = trace.DefaultFilter(0).Apply(tr)
	df = trace.MarkDoubleFetches(&accs)
	e.M.SetTrace(nil)
	mProfileTests.Inc()
	mProfileAccess.Add(int64(accs.Len()))
	return accs, df, res
}
