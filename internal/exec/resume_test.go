package exec_test

import (
	"math/rand"
	"slices"
	"testing"

	"snowboard/internal/corpus"
	"snowboard/internal/exec"
	"snowboard/internal/fuzz"
	"snowboard/internal/kernel"
	"snowboard/internal/trace"
)

// resumeCounts is what a batch of checkResume calls covered.
type resumeCounts struct {
	boundaries, notAtRest, hung, crashed, console int
}

// checkResume holds Env.Resume to the run it shortcuts. It captures a
// generated program p, then, at every call boundary k where the thread is
// at rest, builds a program that keeps p's first k calls and continues
// with a random suffix (appended calls may use p's descriptors), and runs
// it twice: whole from the snapshot, and resumed from boundary k. The two
// results must agree field by field, and the resumed trace must be the
// whole trace's rows from the boundary on. maxSteps 0 is the default
// budget; a small one makes some runs hang, before or after the boundary.
// A leak other than leakNone makes one of p's syscalls return with the
// thread not at rest, which the kernel's own syscalls never do.
func checkResume(t *testing.T, env, whole *exec.Env, progSeed, suffixSeed int64, maxSteps int, lk leak, n *resumeCounts) {
	t.Helper()
	env.MaxSteps, whole.MaxSteps = maxSteps, maxSteps
	g := fuzz.NewGenerator(progSeed)
	p := g.Generate()
	defer lk.install(p.Calls[lk.call%len(p.Calls)].Nr)()
	states := env.States()
	states.Reset()
	var captured, full, resumed trace.Trace
	env.Capture(p, &captured)
	const id = 0 // the first program captured since the Reset
	rng := rand.New(rand.NewSource(suffixSeed))
	for k := 1; k <= len(p.Calls); k++ {
		from := states.Latest(id, k)
		if from.Calls != k {
			n.notAtRest++
			continue
		}
		n.boundaries++
		q := withSuffix(g, rng, p, k)
		want := whole.RunSequential(q, &full)
		wantRets := slices.Clone(want.Rets[0])
		got := env.Resume(q, from, &resumed)
		if !slices.Equal(got.Rets[0], wantRets) || !slices.Equal(got.Faults, want.Faults) ||
			!slices.Equal(got.Console, want.Console) || got.Steps != want.Steps ||
			got.Hung != want.Hung || got.Deadlock != want.Deadlock {
			t.Fatalf("program %d (seed %d) resumed at call %d of\n%s\nas\n%s\ngives rets %v faults %q console %q steps %d hung %v deadlock %v,\n"+
				"the whole run rets %v faults %q console %q steps %d hung %v deadlock %v",
				id, progSeed, k, p, q, got.Rets[0], got.Faults, got.Console, got.Steps, got.Hung, got.Deadlock,
				wantRets, want.Faults, want.Console, want.Steps, want.Hung, want.Deadlock)
		}
		skip := full.Len() - resumed.Len()
		if skip < 0 || (skip > 0 && full.InsAt(skip-1) != from.Last) || (skip == 0 && from.Last != trace.NoIns) {
			t.Fatalf("seed %d, call %d: the resumed trace has %d rows, the whole one %d, the boundary's last site %v",
				progSeed, k, resumed.Len(), full.Len(), from.Last)
		}
		for i := 0; i < resumed.Len(); i++ {
			a, b := resumed.At(i), full.At(skip+i)
			a.Seq = b.Seq
			if a != b {
				t.Fatalf("seed %d, call %d: resumed row %d\n%+v\nthe whole run's row %d\n%+v", progSeed, k, i, a, skip+i, b)
			}
		}
		if got.Hung {
			n.hung++
		}
		if got.Crashed() {
			n.crashed++
		}
		if len(got.Console) > 0 {
			n.console++
		}
	}
}

// withSuffix returns p's first k calls followed by a random suffix: p's
// other calls or none, then mutants of the program so far that keep the k
// calls, so appended calls may take p's descriptors and later ones may be
// tweaked.
func withSuffix(g *fuzz.Generator, rng *rand.Rand, p *corpus.Prog, k int) *corpus.Prog {
	q := &corpus.Prog{Calls: p.Calls[:k:k]}
	if rng.Intn(2) == 0 {
		q.Calls = slices.Clip(p.Calls)
	}
	for range 1 + rng.Intn(8) {
		m := g.Mutate(q)
		if len(m.Calls) > k && len(m.Calls) >= len(q.Calls) && slices.EqualFunc(m.Calls[:k], q.Calls[:k], func(a, b corpus.Call) bool {
			return a.Nr == b.Nr && slices.Equal(a.Args, b.Args)
		}) {
			q = m
		}
	}
	return q
}

// leak makes every call of the syscall of a program's call-th call
// return with the thread holding something a fresh thread does not.
type leak struct {
	call int
	kind uint8
}

// The kinds of leak.
const (
	leakNone  = iota
	leakLock  // the slab lock: the next kmalloc takes it again and faults
	leakRCU   // an open RCU read-side section: later rows carry its bit
	leakFrame // a stack frame: later frames sit lower on the stack
	leakKinds
)

var insLeak = trace.DefIns("resume_test:leak")

// install wraps syscall nr in the kernel's table and returns the undo.
func (l leak) install(nr int) func() {
	if l.kind == leakNone {
		return func() {}
	}
	spec := &kernel.Syscalls[nr]
	fn := spec.Fn
	spec.Fn = func(k *kernel.Kernel, p *kernel.Proc, a []uint64) int64 {
		ret := fn(k, p, a)
		switch l.kind {
		case leakLock:
			p.T.Lock(insLeak, k.G.SlabLock)
		case leakRCU:
			p.T.RCUReadLock()
		case leakFrame:
			p.T.PushFrame(16)
		}
		return ret
	}
	return func() { spec.Fn = fn }
}

// resumeEnvs boots, per kernel version, the Env that captures and resumes
// and the one that runs whole.
func resumeEnvs(tb testing.TB) (envs [2][2]*exec.Env) {
	for i, v := range []kernel.Version{kernel.V5_12_RC3, kernel.V5_3_10} {
		for j := range envs[i] {
			envs[i][j] = exec.NewEnv(kernel.Config{Version: v})
			tb.Cleanup(envs[i][j].Close)
		}
	}
	return envs
}

// TestResumeEqualsRun runs checkResume over generated programs on both
// kernels, at the default step budget and at small ones, and requires that
// it saw what it claims to cover.
func TestResumeEqualsRun(t *testing.T) {
	envs := resumeEnvs(t)
	var n resumeCounts
	for seed := int64(1); seed <= 300; seed++ {
		maxSteps := 0
		if seed%5 == 0 {
			maxSteps = 60 + int(seed)
		}
		var lk leak
		if seed%3 == 0 {
			lk = leak{call: int(seed / 3), kind: uint8(1 + seed/3%(leakKinds-1))}
		}
		e := envs[seed%2]
		checkResume(t, e[0], e[1], seed, -seed, maxSteps, lk, &n)
	}
	t.Logf("%d boundaries resumed (%d hung, %d crashed, %d with console lines), %d not at rest",
		n.boundaries, n.hung, n.crashed, n.console, n.notAtRest)
	if n.boundaries < 500 || n.hung == 0 || n.crashed == 0 || n.notAtRest < 50 {
		t.Fatalf("the generator lost its teeth: %+v", n)
	}
}

// FuzzResumeEqualsRun is checkResume over fuzzer-chosen programs, suffixes,
// kernels and step budgets.
func FuzzResumeEqualsRun(f *testing.F) {
	envs := resumeEnvs(f)
	f.Add(int64(1), int64(2), uint8(0), uint16(0), uint8(0))
	f.Add(int64(7), int64(3), uint8(1), uint16(0), uint8(0))
	f.Add(int64(11), int64(5), uint8(0), uint16(120), uint8(0))
	f.Add(int64(4), int64(9), uint8(1), uint16(0), uint8(0x71))
	f.Fuzz(func(t *testing.T, progSeed, suffixSeed int64, version uint8, steps uint16, leaks uint8) {
		e := envs[version%2]
		lk := leak{call: int(leaks >> 2), kind: leaks % leakKinds}
		var n resumeCounts
		checkResume(t, e[0], e[1], progSeed, suffixSeed, int(steps), lk, &n)
	})
}
