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
}

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
	Rets     [][]int64 // per-thread syscall return values
	Faults   []string  // kernel crash messages
	Console  []string  // full console output
	Steps    int       // events processed
	Hung     bool      // step limit exceeded
	Deadlock bool      // all threads blocked
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

// procBody returns a thread body that executes prog as user process slot.
// Return values are appended to *rets.
func (e *Env) procBody(prog *corpus.Prog, slot int, rets *[]int64) func(*vm.Thread) {
	return func(t *vm.Thread) {
		p := kernel.NewProc(e.K, t, slot)
		var args []uint64 // reused across calls: Invoke only reads it
		for _, call := range prog.Calls {
			args = slices.Grow(args[:0], len(call.Args))[:len(call.Args)]
			clear(args)
			for i, a := range call.Args {
				switch a.Kind {
				case corpus.ConstArg:
					args[i] = a.Val
				case corpus.ResultArg:
					if a.Ref >= 0 && a.Ref < len(*rets) {
						args[i] = uint64((*rets)[a.Ref])
					}
				}
			}
			ret := e.K.Invoke(p, call.Nr, args)
			*rets = append(*rets, ret)
		}
	}
}

func (e *Env) finish(err error, retsPerThread [][]int64) Result {
	r := Result{
		Rets:   retsPerThread,
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
	var rets []int64
	e.M.Spawn("executor-0", kernel.StackFor(0), e.procBody(prog, 0, &rets))
	err := e.M.Run(vm.SeqScheduler{}, e.maxSteps())
	return e.finish(err, [][]int64{rets})
}

// RunPair executes writer and reader concurrently from the snapshot under
// the supplied scheduler: writer on thread 0 / user slot 0, reader on
// thread 1 / user slot 1, matching the paper's two test-executor vCPUs.
func (e *Env) RunPair(writer, reader *corpus.Prog, sched vm.Scheduler, tr *trace.Trace) Result {
	e.prepare(tr)
	wrets := make([]int64, 0, len(writer.Calls))
	rrets := make([]int64, 0, len(reader.Calls))
	e.M.Spawn("executor-0", kernel.StackFor(0), e.procBody(writer, 0, &wrets))
	e.M.Spawn("executor-1", kernel.StackFor(1), e.procBody(reader, 1, &rrets))
	err := e.M.Run(sched, e.maxSteps())
	return e.finish(err, [][]int64{wrets, rrets})
}

// RunMany executes n programs concurrently from the snapshot, one kernel
// thread and user slot per program — the §6 extension beyond two testing
// threads ("Snowboard should apply to input spaces of more dimensions").
func (e *Env) RunMany(progs []*corpus.Prog, sched vm.Scheduler, tr *trace.Trace) Result {
	if len(progs) == 0 || len(progs) > kernel.MaxProcs {
		panic(fmt.Sprintf("exec: RunMany with %d programs (max %d)", len(progs), kernel.MaxProcs))
	}
	e.prepare(tr)
	rets := make([][]int64, len(progs))
	for i, prog := range progs {
		e.M.Spawn(fmt.Sprintf("executor-%d", i), kernel.StackFor(i), e.procBody(prog, i, &rets[i]))
	}
	err := e.M.Run(sched, e.maxSteps())
	return e.finish(err, rets)
}

// Profile runs prog sequentially and returns its shared-memory access set:
// the trace filtered to the executor thread's non-stack, non-lock-word
// accesses (§4.1.1), plus the double-fetch leader markings used by
// S-CH-DOUBLE.
func (e *Env) Profile(prog *corpus.Prog) (accs trace.Block, df map[int]bool, res Result) {
	var tr trace.Trace
	res = e.RunSequential(prog, &tr)
	accs = trace.DefaultFilter(0).Apply(&tr)
	df = trace.MarkDoubleFetches(&accs)
	e.M.SetTrace(nil)
	mProfileTests.Inc()
	mProfileAccess.Add(int64(accs.Len()))
	return accs, df, res
}
