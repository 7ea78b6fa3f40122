package fuzz

import (
	"testing"

	"snowboard/internal/corpus"
	"snowboard/internal/exec"
	"snowboard/internal/kernel"
	"snowboard/internal/par"
	"snowboard/internal/trace"
)

func TestCampaignSmoke(t *testing.T) {
	env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	res := Campaign(env, 1, 300, 0)
	t.Logf("executed=%d selected=%d crashes=%d edges=%d", res.Executed, res.Selected, res.Crashes, res.EdgeCount)
	if res.Corpus.Len() < 10 {
		t.Fatalf("corpus too small: %d", res.Corpus.Len())
	}
	if res.Crashes > 0 {
		t.Fatalf("sequential executions crashed the kernel: %d", res.Crashes)
	}
	if res.EdgeCount == 0 {
		t.Fatal("no coverage accumulated")
	}
	// A healthy campaign exercises a good spread of the syscall surface.
	if h := res.Corpus.SyscallHistogram(); len(h) < 12 {
		t.Fatalf("syscall diversity too low: %v", h)
	}
}

// perExecutionFold is the campaign loop as it was before the coverage
// probe, kept as the oracle of TestCampaignEqualsPerExecutionFold: every
// execution builds the edge set of its whole trace in a fresh map, and the
// fold merges the maps into the campaign's in unit order.
func perExecutionFold(env *exec.Env, seed int64, budget, maxKeep int) CampaignResult {
	type edge [2]trace.Ins
	cov := make(map[edge]bool)
	out := CampaignResult{Corpus: corpus.NewCorpus()}
	g := NewGenerator(0)
	var tr trace.Trace
	for out.Executed < budget {
		n := min(budget-out.Executed, batchSize)
		snapshot := append([]*corpus.Prog(nil), out.Corpus.Progs...)
		progs := make([]*corpus.Prog, n)
		edges := make([]map[edge]bool, n) // nil: the execution crashed
		for i := range progs {
			g.rng.Seed(par.UnitSeed(seed, par.StageFuzz, out.Executed+i))
			if len(snapshot) > 0 && g.rng.Intn(3) != 0 {
				progs[i] = g.Mutate(snapshot[g.rng.Intn(len(snapshot))])
			} else {
				progs[i] = g.Generate()
			}
			res := env.RunSequential(progs[i], &tr)
			env.M.SetTrace(nil)
			if res.Crashed() || res.Hung || res.Deadlock {
				continue
			}
			edges[i] = make(map[edge]bool)
			for j := 1; j < tr.Len(); j++ {
				edges[i][edge{tr.InsAt(j - 1), tr.InsAt(j)}] = true
			}
		}
		for i, p := range progs {
			out.Executed++
			if edges[i] == nil {
				out.Crashes++
				continue
			}
			fresh := 0
			for e := range edges[i] {
				if !cov[e] {
					cov[e] = true
					fresh++
				}
			}
			if fresh > 0 && out.Corpus.Add(p) {
				out.Selected++
			}
			if maxKeep > 0 && out.Corpus.Len() >= maxKeep {
				out.EdgeCount = len(cov)
				return out
			}
		}
	}
	out.EdgeCount = len(cov)
	return out
}

// TestCampaignEqualsPerExecutionFold holds CampaignSharded — workers probing
// the round's coverage without a lock, the fold adding what they lacked —
// to the per-execution build-and-merge it replaced, at any worker count.
// Under -race it is also the proof that a probe only ever runs beside other
// probes.
func TestCampaignEqualsPerExecutionFold(t *testing.T) {
	base := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	defer base.Close()
	clones := make([]*exec.Env, 8)
	for w := range clones {
		clones[w] = base.Clone()
		defer clones[w].Close()
	}
	for _, tc := range []struct {
		name            string
		seed            int64
		budget, maxKeep int
	}{
		{"budget", 5, 700, 0},
		{"short last round", 11, 333, 0},
		{"cap mid-round", 5, 2000, 37},
	} {
		want := perExecutionFold(base, tc.seed, tc.budget, tc.maxKeep)
		if tc.maxKeep > 0 && (want.Executed%batchSize == 0 || want.Executed >= tc.budget) {
			t.Fatalf("%s: the cap stopped the oracle at %d executions, not mid-round", tc.name, want.Executed)
		}
		for _, workers := range []int{1, 2, 8} {
			got := CampaignSharded(clones[:workers], tc.seed, tc.budget, tc.maxKeep)
			if got.Executed != want.Executed || got.Selected != want.Selected ||
				got.Crashes != want.Crashes || got.EdgeCount != want.EdgeCount {
				t.Fatalf("%s, %d envs: executed/selected/crashes/edges %d/%d/%d/%d, oracle %d/%d/%d/%d", tc.name, workers,
					got.Executed, got.Selected, got.Crashes, got.EdgeCount,
					want.Executed, want.Selected, want.Crashes, want.EdgeCount)
			}
			if got.Corpus.Len() != want.Corpus.Len() {
				t.Fatalf("%s, %d envs: corpus of %d programs, oracle %d", tc.name, workers, got.Corpus.Len(), want.Corpus.Len())
			}
			for i, p := range got.Corpus.Progs {
				if p.Hash() != want.Corpus.Progs[i].Hash() {
					t.Fatalf("%s, %d envs: corpus diverges from the oracle at program %d", tc.name, workers, i)
				}
			}
		}
	}
}

// TestFuzzExecAllocBudget is the allocation gate on one fuzzing execution,
// generation to fold: the run borrows its storage from the Env and only the
// 3% of executions that add coverage carry edge keys, so what is left is
// the generator's (Prog.Clone, genCall, literalArgs) — 30.6 per execution
// when every run allocated its bodies and built and merged a map of its
// trace, 11.3 measured.
func TestFuzzExecAllocBudget(t *testing.T) {
	env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	defer env.Close()
	const budget = 2000
	Campaign(env, 9, budget, 0) // warm the Env
	perExec := testing.AllocsPerRun(3, func() { Campaign(env, 9, budget, 0) }) / budget
	t.Logf("one fuzzing execution: %.1f allocs", perExec)
	if perExec > 14 {
		t.Fatalf("a fuzzing execution allocates %.1f times, budget 14", perExec)
	}
}
