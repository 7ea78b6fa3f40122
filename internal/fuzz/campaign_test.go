package fuzz

import (
	"testing"

	"snowboard/internal/corpus"
	"snowboard/internal/exec"
	"snowboard/internal/kernel"
	"snowboard/internal/obs"
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
//
// The memo is held to the same oracle, which runs every candidate: a
// repeat answered by it must fold as its run would have, crashed or not.
// The "hangs" case runs on Envs whose step limit makes some candidates
// hang, so crashing verdicts are remembered and reused too.
func TestCampaignEqualsPerExecutionFold(t *testing.T) {
	envs := func(maxSteps int) (*exec.Env, []*exec.Env) {
		base := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
		base.MaxSteps = maxSteps
		t.Cleanup(base.Close)
		clones := make([]*exec.Env, 8)
		for w := range clones {
			clones[w] = base.Clone()
			t.Cleanup(clones[w].Close)
		}
		return base, clones
	}
	base, clones := envs(0)
	hangBase, hangClones := envs(120)
	for _, tc := range []struct {
		name            string
		seed            int64
		budget, maxKeep int
		hangs           bool
	}{
		{"budget", 5, 700, 0, false},
		{"short last round", 11, 333, 0, false},
		{"cap mid-round", 5, 2000, 37, false},
		{"hangs", 7, 1500, 0, true},
	} {
		base, clones := base, clones
		if tc.hangs {
			base, clones = hangBase, hangClones
		}
		want := perExecutionFold(base, tc.seed, tc.budget, tc.maxKeep)
		if tc.maxKeep > 0 && (want.Executed%batchSize == 0 || want.Executed >= tc.budget) {
			t.Fatalf("%s: the cap stopped the oracle at %d executions, not mid-round", tc.name, want.Executed)
		}
		if tc.hangs && want.Crashes == 0 {
			t.Fatalf("%s: no candidate hung at MaxSteps %d", tc.name, base.MaxSteps)
		}
		t.Logf("%s: oracle executed/selected/crashes %d/%d/%d", tc.name, want.Executed, want.Selected, want.Crashes)
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

// TestRepeatedCandidateNotRun holds the memo to its purpose: a campaign
// whose candidate stream repeats programs answers the repeats without a
// guest run, so its runs are its candidates less its repeats.
func TestRepeatedCandidateNotRun(t *testing.T) {
	env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	defer env.Close()
	runs := obs.C(obs.MExecRuns)
	before := runs.Value()
	res := Campaign(env, 3, 1000, 0)
	ran := int(runs.Value() - before)
	t.Logf("executed=%d repeats=%d runs=%d", res.Executed, res.Repeats, ran)
	if res.Repeats == 0 {
		t.Fatalf("no repeats in %d candidates", res.Executed)
	}
	if ran != res.Executed-res.Repeats {
		t.Fatalf("%d guest runs for %d candidates with %d repeats, want %d",
			ran, res.Executed, res.Repeats, res.Executed-res.Repeats)
	}
}

// TestFuzzExecAllocBudget is the allocation gate on one fuzzing execution,
// generation to fold: the run borrows its storage from the Env, and the
// candidate is built in its round slot, sharing the calls it does not
// rewrite with its parent, so a candidate the fold throws away allocates
// nothing. What is left is the copy-out (Prog.Clone, and Corpus.Add's
// key) of what the corpus keeps, the memo's map and 4 KiB chunks, and
// the edge keys of runs that add coverage: 0.8 per execution, from 30.6
// when every run allocated its bodies and built and merged a map of its
// trace and 11.3 when every candidate was cloned and its descriptor kinds
// resolved into fresh slices.
func TestFuzzExecAllocBudget(t *testing.T) {
	env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	defer env.Close()
	const budget = 2000
	Campaign(env, 9, budget, 0) // warm the Env
	perExec := testing.AllocsPerRun(3, func() { Campaign(env, 9, budget, 0) }) / budget
	t.Logf("one fuzzing execution: %.1f allocs", perExec)
	if perExec > 2 {
		t.Fatalf("a fuzzing execution allocates %.1f times, budget 2", perExec)
	}
}
