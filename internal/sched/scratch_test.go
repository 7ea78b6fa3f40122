package sched

import (
	"math/rand"
	"slices"
	"testing"

	"snowboard/internal/cluster"
	"snowboard/internal/cover"
	"snowboard/internal/detect"
	"snowboard/internal/detect/model"
	"snowboard/internal/exec"
	"snowboard/internal/kernel"
	"snowboard/internal/pmc"
	"snowboard/internal/trace"
)

// TestFindIncidentalEqualsBruteForce replays 50 seeds of real trials and,
// on each, grows the set under test through the columnar lookup and the
// model's brute-force scan side by side: every trial must find as many
// candidates and adopt the same PMC. It does so twice: adopting from the
// whole set, and from the PMCs of the S-INS-PAIR clusters no batch test
// plans, as if a batch of tests hinted every other PMC; there the smaller
// set must leave candidates out.
func TestFindIncidentalEqualsBruteForce(t *testing.T) {
	env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	set, hint := identifyL2TP(t, env)
	ct := ConcurrentTest{Writer: l2tpWriterProg(), Reader: l2tpReaderProg(), Hint: &hint}
	var hints []pmc.PMC
	for p := range set.Entries {
		if id, _ := set.ID(p); id%2 == 0 {
			hints = append(hints, p)
		}
	}
	var tr trace.Trace
	for _, known := range []*pmc.Set{set, adoptableBy(set, hints...)} {
		x := &Explorer{Env: env, KnownPMCs: known}
		x.scratchFor()
		adopted, skipped := 0, 0
		for seed := int64(1); seed <= 50; seed++ {
			current := []pmc.PMC{hint}
			for len(current) < maxCurrentPMCs {
				Replay(env, ct, &ReproState{Seed: seed, PMCs: current}, &tr)
				env.M.SetTrace(nil)
				x.scratch.view.Build(&tr)
				ranked := model.Incidental(known, &tr, current)
				skipped += len(model.Incidental(set, &tr, current)) - len(ranked)
				want, wantOK := model.Adopt(ranked, rand.New(rand.NewSource(seed)))
				got, gotOK := x.findIncidental(&x.scratch.view, current, rand.New(rand.NewSource(seed)))
				if got != want || gotOK != wantOK || len(x.scratch.candidates) != len(ranked) {
					t.Fatalf("%d planned, seed %d with %d PMCs under test: columnar lookup adopted %v (%v) of %d candidates, model %v (%v) of %d",
						set.Len()-known.Len(), seed, len(current), got, gotOK, len(x.scratch.candidates), want, wantOK, len(ranked))
				}
				if !gotOK {
					break
				}
				current = append(current, got)
				adopted++
			}
		}
		t.Logf("%d of %d PMCs planned: %d adoptions, %d candidates skipped", set.Len()-known.Len(), set.Len(), adopted, skipped)
		if adopted < 50 || (known != set && skipped == 0) {
			t.Fatalf("%d planned: %d adoptions over 50 seeds, %d candidates skipped; the comparison lost its teeth", set.Len()-known.Len(), adopted, skipped)
		}
	}
}

// adoptableBy returns what a batch of tests hinting hints may adopt under
// S-INS-PAIR, as the pipeline derives it: the PMCs of set sharing no
// cluster with any of them.
func adoptableBy(set *pmc.Set, hints ...pmc.PMC) *pmc.Set {
	cs := cluster.Clusters(set, cluster.SInsPair)
	return pmc.SetOf(cluster.NewIndex(set, cluster.SInsPair, cs).Unplanned(slices.Values(hints)))
}

// TestFleetWorkersOwnScratch: NewFleet copies the template Explorer by
// value, so a template that has already explored (and therefore carries
// scratch) must not lend one set of tables to several goroutines. Two
// fleets built from one used template run under -race and must agree with
// a fresh serial explorer.
func TestFleetWorkersOwnScratch(t *testing.T) {
	env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	set, hint := identifyL2TP(t, env)
	ct := ConcurrentTest{Writer: l2tpWriterProg(), Reader: l2tpReaderProg(), Hint: &hint}
	template := Explorer{Env: env, Trials: 4, Mode: ModeSnowboard, Detect: detect.DefaultOptions(),
		KnownPMCs: set, TrackSegments: true}
	template.Explore(ct) // the template now owns scratch
	if template.scratch == nil {
		t.Fatal("template did not create scratch")
	}

	tests := []ConcurrentTest{ct, ct, ct, ct, ct, ct}
	seeds := []int64{11, 12, 13, 14, 15, 16}
	serial := &Explorer{Env: env.Clone(), Trials: 4, Mode: ModeSnowboard, Detect: detect.DefaultOptions(),
		KnownPMCs: set, TrackSegments: true}
	var want []Outcome
	for i := range tests {
		serial.Seed = seeds[i]
		want = append(want, serial.Explore(tests[i]))
	}
	for round := 0; round < 2; round++ {
		envs := []*exec.Env{env.Clone(), env.Clone(), env.Clone()}
		fleet := NewFleet(template, envs, nil)
		for i, w := range fleet.workers {
			if w.scratch != nil {
				t.Fatalf("fleet %d worker %d shares the template's scratch", round, i)
			}
		}
		for i, got := range fleet.ExploreAll(tests, seeds) {
			if got.Trials != want[i].Trials || got.Steps != want[i].Steps || got.Switches != want[i].Switches ||
				len(got.Issues) != len(want[i].Issues) || got.NewSegments != want[i].NewSegments {
				t.Fatalf("fleet %d test %d: got %+v, want %+v", round, i, got, want[i])
			}
		}
	}
}

// TestTrialAllocBudget is the allocation gate on a whole warm trial, in the
// mould of vm.TestRecordAllocBudget: guest execution, the trial view, both
// oracles, both coverage metrics, incidental lookup — within 4.75
// allocations (~1,070 before the flat shadow tables, ~218 before the
// dirty-page restore and the lazily seeded rng, ~35 before the vCPU
// coroutines and the Proc-owned syscall arguments, ~22 before a racing pair
// was classified once per explorer, 19.75 before a run borrowed its Procs,
// Threads, bodies and slices from the Env, 2.375 before the per-test segment
// accumulator became a flat table; 2.125 measured, with and without the
// race detector). The bound is that measurement plus the 2.625 margin the
// budget of 5 left over 2.375.
func TestTrialAllocBudget(t *testing.T) {
	env := exec.NewEnv(kernel.Config{Version: kernel.V5_3_10})
	set, hint := identifyL2TP(t, env)
	ct := ConcurrentTest{Writer: l2tpWriterProg(), Reader: l2tpReaderProg(), Hint: &hint}
	const trials = 8
	x := &Explorer{
		Env: env, Trials: trials, Seed: 3, Mode: ModeSnowboard, Detect: detect.DefaultOptions(),
		KnownPMCs: set, Coverage: cover.New(), TrackSegments: true,
		Fsck: func() []string { return env.K.FsckHost() },
	}
	ran := x.Explore(ct).Trials // warm the scratch
	perExplore := testing.AllocsPerRun(5, func() { x.Explore(ct) })
	perTrial := perExplore / float64(ran)
	t.Logf("warm trial: %.3f allocs (%.0f per %d-trial Explore)", perTrial, perExplore, ran)
	if perTrial > 4.75 {
		t.Fatalf("a warm trial allocates %.3f times (%.0f per %d-trial Explore), budget 4.75", perTrial, perExplore, ran)
	}
}

// TestViewAllocBudget pins everything that runs after a trial that found
// nothing — the view build, every oracle, the fused coverage walk, the
// channel witness, the incidental lookup — at zero allocations once warm
// (~828 for detect.Analyze alone before the flat shadow tables). The trace
// is single-threaded, hence race-free.
func TestViewAllocBudget(t *testing.T) {
	env := exec.NewEnv(kernel.Config{Version: kernel.V5_3_10})
	set, hint := identifyL2TP(t, env)
	var tr trace.Trace
	res := env.RunSequential(l2tpReaderProg(), &tr)
	env.M.SetTrace(nil)
	x := &Explorer{KnownPMCs: set}
	sc := x.scratchFor()
	cov, segs, rng := cover.New(), cover.NewSegments(), rand.New(rand.NewSource(1))
	analyse := func() int {
		sc.view.Build(&tr)
		in := detect.TrialInput{Console: res.Console, Trace: &tr, View: &sc.view, Cover: &sc.walk}
		issues := len(sc.oracle.Analyze(in, detect.DefaultOptions()))
		sc.walk.Fold(cov, segs)
		ChannelExercised(&tr, &hint)
		x.findIncidental(&sc.view, nil, rng)
		return issues
	}
	if issues := analyse(); issues != 0 {
		t.Fatalf("single-threaded trace is not finding-free: %d issues", issues)
	}
	n := testing.AllocsPerRun(20, func() { analyse() })
	t.Logf("view build and analysis of a finding-free trace of %d accesses: %.0f allocs", tr.Len(), n)
	if n != 0 {
		t.Fatalf("view build and analysis of a finding-free trace allocates %.0f times, budget 0", n)
	}
}

// BenchmarkTrialAnalysis times the post-trial analysis on real trials: it
// records the traces of about 400 trials of realTests (5.12-rc3, seed 3)
// once, then per op builds every trace's view ("view"), or builds it and
// runs the oracles over it through one detect.Scratch ("analyze"). Each
// reports ns per trace row.
func BenchmarkTrialAnalysis(b *testing.B) {
	env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	_, tests := realTests(b, env, 3)
	var trials []detect.TrialInput
	rows := 0
	x := &Explorer{Env: env, Trials: 10, Seed: 3, Mode: ModeSnowboard, Detect: detect.DefaultOptions()}
	sc := x.scratchFor()
	sc.ran = func(res exec.Result, _ *memoKey) {
		tr := new(trace.Trace)
		for i := 0; i < sc.tr.Len(); i++ {
			a := sc.tr.At(i)
			tr.Record(a.Ins, a.Addr, a.Val, a.Meta())
		}
		trials = append(trials, detect.TrialInput{Console: res.Console, Trace: tr, Hung: res.Hung, Deadlock: res.Deadlock})
		rows += tr.Len()
	}
	for _, ct := range tests {
		x.Explore(ct)
	}
	env.Close()
	b.Logf("%d trials, %d rows", len(trials), rows)
	var v trace.View
	var oracle detect.Scratch
	for _, arm := range []struct {
		name    string
		analyze bool
	}{{"view", false}, {"analyze", true}} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, in := range trials {
					v.Build(in.Trace)
					if arm.analyze {
						in.View = &v
						oracle.Analyze(in, detect.DefaultOptions())
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
