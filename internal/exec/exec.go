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
}

// runSlot is what a run borrows for one thread slot instead of allocating
// it. Nothing in it outlives the next run on the Env.
type runSlot struct {
	prog *corpus.Prog
	proc kernel.Proc
	args []uint64         // reused across calls: Invoke only reads it
	body func(*vm.Thread) // runs prog as this slot's user process; made once
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

// NewEnvWithSetup boots a kernel, runs setup once sequentially, and
// snapshots the *resulting* state as the environment's fixed starting
// point. This implements §4.1's growth of initial kernel states: "some
// initial kernel states may not be reachable [within the test-length
// limit]; in such cases, Snowboard can grow the number of initial kernel
// states it utilizes to increase diversity." Tests profiled against
// different setups see different memory layouts, so a PMC database is only
// meaningful within one environment.
func NewEnvWithSetup(cfg kernel.Config, setup *corpus.Prog) (*Env, error) {
	e := NewEnv(cfg)
	if setup == nil || len(setup.Calls) == 0 {
		return e, nil
	}
	res := e.RunSequential(setup, nil)
	if res.Crashed() || res.Hung || res.Deadlock {
		e.Close()
		return nil, fmt.Errorf("exec: setup program failed: faults=%v hung=%v deadlock=%v",
			res.Faults, res.Hung, res.Deadlock)
	}
	// The post-setup memory becomes the new fixed initial state; runtime
	// state (threads, console) is reset as on a fresh boot.
	e.Snap = e.M.Mem.Snapshot()
	e.M.ResetRuntime()
	return e, nil
}

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

// spawn arms thread and user slot i with prog for the run being prepared.
func (e *Env) spawn(i int, prog *corpus.Prog) {
	s := &e.slots[i]
	if s.body == nil {
		s.body = func(t *vm.Thread) { e.runProg(i, t) }
	}
	s.prog, e.rets[i] = prog, e.rets[i][:0]
	e.M.Spawn(executorNames[i], kernel.StackFor(i), s.body)
}

// runProg is the thread body: it executes slot i's program as user process
// i, appending each call's return value to e.rets[i].
func (e *Env) runProg(i int, t *vm.Thread) {
	s := &e.slots[i]
	s.proc.Reset(e.K, t, i)
	for _, call := range s.prog.Calls {
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

// finish builds the Result of the run that just ended on the first n slots.
func (e *Env) finish(err error, n int) Result {
	r := Result{
		Rets:   e.rets[:n],
		Faults: append([]string(nil), e.M.Faults()...),
		Steps:  e.M.Steps(),
	}
	mRuns.Inc()
	mSteps.Add(int64(r.Steps))
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
	r.Console = append([]string(nil), e.M.Console.Lines()...)
	return r
}

// RunSequential executes prog alone from the snapshot, recording its memory
// trace into tr (which may be nil to skip tracing). This is the profiling
// primitive of §4.1.
func (e *Env) RunSequential(prog *corpus.Prog, tr *trace.Trace) Result {
	e.prepare(tr)
	e.spawn(0, prog)
	err := e.M.Run(vm.SeqScheduler{}, e.maxSteps())
	return e.finish(err, 1)
}

// RunPair executes writer and reader concurrently from the snapshot under
// the supplied scheduler: writer on thread 0 / user slot 0, reader on
// thread 1 / user slot 1, matching the paper's two test-executor vCPUs.
func (e *Env) RunPair(writer, reader *corpus.Prog, sched vm.Scheduler, tr *trace.Trace) Result {
	e.prepare(tr)
	e.spawn(0, writer)
	e.spawn(1, reader)
	err := e.M.Run(sched, e.maxSteps())
	return e.finish(err, 2)
}

// RunMany executes n programs concurrently from the snapshot, one kernel
// thread and user slot per program — the §6 extension beyond two testing
// threads ("Snowboard should apply to input spaces of more dimensions").
func (e *Env) RunMany(progs []*corpus.Prog, sched vm.Scheduler, tr *trace.Trace) Result {
	if len(progs) == 0 || len(progs) > kernel.MaxProcs {
		panic(fmt.Sprintf("exec: RunMany with %d programs (max %d)", len(progs), kernel.MaxProcs))
	}
	e.prepare(tr)
	for i, prog := range progs {
		e.spawn(i, prog)
	}
	err := e.M.Run(sched, e.maxSteps())
	return e.finish(err, len(progs))
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
