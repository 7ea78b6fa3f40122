package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"snowboard/internal/cluster"
	"snowboard/internal/core"
	"snowboard/internal/corpus"
	"snowboard/internal/cover"
	"snowboard/internal/detect"
	"snowboard/internal/exec"
	"snowboard/internal/fuzz"
	"snowboard/internal/obs"
	"snowboard/internal/par"
	"snowboard/internal/pmc"
	"snowboard/internal/queue"
	"snowboard/internal/sched"
	"snowboard/internal/store"
	"snowboard/internal/trace"
	"snowboard/internal/triage"
	"snowboard/internal/vm"
)

// layers collects per-layer metric values by name.
type layers map[string]float64

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func nsPer(d time.Duration, n int) float64 { return ratio(float64(d), float64(n)) }

// timed returns the wall time of fn.
func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// allocsOf returns what one call of fn allocated, whole-process, in the
// manner of testing.AllocsPerRun: the benchmark is single-goroutine while
// it probes, so the delta is the call's own.
func allocsOf(fn func()) (mallocs, bytes float64) {
	m := markMem()
	fn()
	n := markMem()
	return float64(n.mallocs - m.mallocs), float64(n.bytes - m.bytes)
}

// mallocsOf is allocsOf for callers that want the count alone.
func mallocsOf(fn func()) float64 {
	mallocs, _ := allocsOf(fn)
	return mallocs
}

// tracedResult is what the traced pass hands back to the runner.
type tracedResult struct {
	layers    layers
	attempted int
	failed    int
	problems  []string
	checks    map[string]any
}

func (t *tracedResult) fail(format string, args ...any) {
	t.failed++
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

// tracedPass re-runs the workload's first unit stage by stage under the
// benchmark's own spans, decomposes a trial into its layers, and probes the
// remaining layers on that unit's artifacts. Its numbers never feed the
// end-to-end metrics.
func tracedPass(w workload, ctx *runCtx, seed int64, rec *recorder) *tracedResult {
	t := &tracedResult{layers: make(layers), checks: make(map[string]any)}
	lm := t.layers
	obs0 := obs.Default.Snapshot()

	// The untraced reference: the unit exactly as the end-to-end pass runs
	// it, against which the staged run's overhead and digest are compared.
	opts := campaignOpts(ctx.sc, seed, w.name == "feedback")
	var plain unitResult
	var art *artifacts
	var staged time.Duration
	if w.name == "frontend" {
		plain, _ = frontendUnit(ctx, seed, nil)
		var again unitResult
		staged = rec.do("unit", func() { again, art = frontendUnit(ctx, seed, rec) })
		if again.Stable != plain.Stable {
			t.fail("traced unit digest %s differs from untraced %s", again.Stable, plain.Stable)
		}
		after, _ := frontendUnit(ctx, seed, nil)
		plain.Wall = (plain.Wall + after.Wall) / 2
		lm["identify_oneshot_s"] = again.Extra["identify_oneshot_s"]
		lm["identify_incr_s"] = again.Extra["identify_incr_s"]
		// Stage 4 over the union artifacts, so that the stage-4 layers are
		// probed on this workload's own tests too.
		stageFour(art, rec)
	} else {
		plain = campaignUnit(ctx, opts)
		var err error
		staged = rec.do("unit", func() { art, err = stagedCampaign(opts, rec) })
		if err != nil {
			t.fail("staged campaign: %v", err)
			return t
		}
		if d, _ := stableDigest(art.report); d != plain.Stable {
			t.fail("stage-by-stage digest %s differs from core.Run digest %s", d, plain.Stable)
		}
		// The staged run sits between two plain ones, so that neither
		// side of the overhead ratio is the process's first campaign.
		plain.Wall = (plain.Wall + campaignUnit(ctx, opts).Wall) / 2
		identifyEngines(art, lm)
	}
	t.attempted, t.failed, t.problems = plain.Attempted, plain.Failed, plain.Problems
	t.checks["digest"], t.checks["stable_digest"] = plain.Digest, plain.Stable
	lm["trace_overhead_pct"] = 100 * (ratio(float64(staged), float64(plain.Wall)) - 1)

	stageMetrics(art, rec, lm)
	decompose(t, art, ctx, rec)
	foldAndWorkers(t, art, ctx, rec)
	feedbackProbe(art, ctx, lm)
	stateProbes(t, w, ctx, opts, plain, lm)
	guestProbes(t, art, ctx)
	identifyProbes(t, art)
	triageProbe(t, art, ctx, lm)
	queueProbes(t, art, lm)
	storeProbes(t, art, ctx, lm)
	obsProbes(lm)
	lm["par.map.ns_per_unit"] = nsPer(timed(func() {
		par.Map(1, 1<<17, func(_, i int) int { return i })
	}), 1<<17)

	if w.name == "fleet" {
		// The control-plane path itself: its warm pass and its redeliveries
		// are layer numbers only this workload produces.
		u := fleetUnit(ctx, seed)
		t.attempted, t.failed = t.attempted+u.Attempted, t.failed+u.Failed
		t.problems = append(t.problems, u.Problems...)
		lm["core.resume_warm.ns_per_campaign"] = 1e9 * u.Extra["warm_pass_s"] / float64(ctx.sc.campaigns)
	}
	now := obs.Default.Snapshot()
	lm["queue.redeliveries"] = float64(now.Counter(obs.MQueueRedeliver) - obs0.Counter(obs.MQueueRedeliver))
	return t
}

// stagedCampaign is core.Run's sequence with a span around each stage.
func stagedCampaign(opts core.Options, rec *recorder) (*artifacts, error) {
	art := &artifacts{opts: opts}
	p := core.NewPipeline(opts)
	r := p.NewReport()
	crashes0 := obs.C(obs.MFuzzCrashes).Value()
	rec.do("core.fuzz", func() { p.BuildCorpus(r) })
	art.fuzz = fuzz.CampaignResult{
		Executed: r.FuzzExecutions,
		Selected: r.CorpusSize,
		Crashes:  int(obs.C(obs.MFuzzCrashes).Value() - crashes0),
	}
	var err error
	rec.do("core.profile", func() { err = p.ProfileAll(r) })
	if err != nil {
		return nil, err
	}
	rec.do("core.identify", func() { p.IdentifyPMCs(r) })
	art.pipe, art.report = p, r
	if opts.Feedback {
		rec.do("core.feedback", func() { p.RunFeedback(r, opts.TestBudget) })
		rec.do("core.triage", func() { p.TriageReport(r) })
		// The loop plans its own tests; a plain generation pass afterwards
		// supplies tests for the probes without disturbing the report.
		art.tests = p.GenerateTests(p.NewReport(), opts.TestBudget)
		return art, nil
	}
	stageFour(art, rec)
	return art, nil
}

// stageFour generates, executes and triages on the artifacts' pipeline.
func stageFour(art *artifacts, rec *recorder) {
	p := art.pipe
	if art.report == nil {
		art.report = p.NewReport()
	}
	rec.do("core.generate", func() { art.tests = p.GenerateTests(art.report, art.opts.TestBudget) })
	rec.do("core.exec", func() { p.ExecuteTests(art.report, art.tests) })
	rec.do("core.triage", func() { p.TriageReport(art.report) })
}

// stageMetrics turns the stage spans and the report's own counters into the
// core.* and search-quality numbers.
func stageMetrics(art *artifacts, rec *recorder, lm layers) {
	r := art.report
	stage := func(name string) float64 {
		d, _ := rec.total(name)
		return float64(d)
	}
	lm["core.fuzz.ns"] = stage("core.fuzz")
	lm["core.profile.ns"] = stage("core.profile")
	lm["core.identify.ns"] = stage("core.identify")
	lm["core.generate.ns"] = stage("core.generate")
	lm["core.exec.ns"] = stage("core.exec")
	lm["core.triage.ns"] = stage("core.triage")
	if art.opts.Feedback {
		// Generation and execution interleave inside RunFeedback; the
		// report's own stage clocks split the span.
		lm["core.generate.ns"] = float64(r.ClusterTime)
		lm["core.exec.ns"] = float64(r.ExecTime)
	}
	total := lm["core.fuzz.ns"] + lm["core.profile.ns"] + lm["core.identify.ns"] +
		lm["core.generate.ns"] + lm["core.exec.ns"] + lm["core.triage.ns"]
	lm["core.exec.share"] = ratio(lm["core.exec.ns"], total)

	lm["sched.trials_per_test"] = ratio(float64(r.TrialsRun), float64(r.TestedTests))
	lm["sched.steps_per_trial"] = ratio(float64(r.Steps), float64(r.TrialsRun))
	lm["sched.switches_per_trial"] = ratio(float64(r.Switches), float64(r.TrialsRun))
	lm["sched.exercised_ratio"] = r.Accuracy()
	lm["issues_found"] = float64(len(r.Issues))
	lm["segments_per_ktrial"] = 1000 * ratio(float64(r.CoverSegments), float64(r.TrialsRun))
	lm["fuzz.admit_ratio"] = ratio(float64(art.fuzz.Selected), float64(art.fuzz.Executed))
	lm["fuzz.crash_ratio"] = ratio(float64(art.fuzz.Crashes), float64(art.fuzz.Executed))
	lm["fuzz_execs_per_s"] = ratio(float64(art.fuzz.Executed), lm["core.fuzz.ns"]/1e9)
}

// identifyEngines times both identification engines over a campaign's
// profiles (frontend takes the same numbers from its unit).
func identifyEngines(art *artifacts, lm layers) {
	lm["identify_oneshot_s"] = timed(func() {
		pmc.IdentifyParallel(art.pipe.Profiles, art.opts.PMC, 1)
	}).Seconds()
	lm["identify_incr_s"] = timed(func() { incrementalOver(art.pipe.Profiles, art.opts.PMC) }).Seconds()
}

// probeTests is the slice of generated tests the stage-4 probes run over,
// with the seed each gets in a fresh pipeline's ExecuteTests.
func probeTests(art *artifacts, ctx *runCtx) ([]sched.ConcurrentTest, []int64) {
	tests := art.tests
	if len(tests) > ctx.sc.decompTests {
		tests = tests[:ctx.sc.decompTests]
	}
	seeds := make([]int64, len(tests))
	for i := range seeds {
		seeds[i] = par.UnitSeed(art.opts.Seed, par.StageExplore, i)
	}
	return tests, seeds
}

func explorerFor(art *artifacts, env *exec.Env, trials int) *sched.Explorer {
	return &sched.Explorer{
		Env:           env,
		Trials:        trials,
		Mode:          sched.ModeSnowboard,
		Detect:        art.opts.Detect,
		KnownPMCs:     art.pipe.PMCs,
		Coverage:      cover.New(),
		TrackSegments: true,
		Fsck:          func() []string { return env.K.FsckHost() },
	}
}

// decompose times, on one trace per synthesized trial, every layer the
// explorer calls under a trial, then the whole explorer over the same tests,
// and reports how much of the explorer's time the probes account for.
func decompose(t *tracedResult, art *artifacts, ctx *runCtx, rec *recorder) {
	lm := t.layers
	env := ctx.env
	tests, seeds := probeTests(art, ctx)
	if len(tests) == 0 {
		t.fail("no generated tests to decompose")
		return
	}
	var (
		tr, scratch              trace.Trace
		trials, steps, accesses  int
		seqSteps, picks, reports int
		cov                      = cover.New()
		merged                   = cover.NewSegments()
		alloc                    = make(map[string]float64) // summed over tests
	)
	alternate := vm.FuncScheduler(func(m *vm.Machine, last *vm.Thread, _ vm.Event) *vm.Thread {
		picks++
		runnable := m.Runnable()
		for _, th := range runnable {
			if th != last {
				return th
			}
		}
		if len(runnable) > 0 {
			return runnable[0]
		}
		return nil
	})
	for i, ct := range tests {
		segs := cover.NewSegments()
		rec.do("decompose.test", func() {
			for k := 0; k < ctx.sc.decompTrials; k++ {
				st := trialState(ct, seeds[i], k)
				rec.do("vm.restore", func() {
					env.M.ResetRuntime()
					env.M.Mem.Restore(env.Snap)
				})
				var res exec.Result
				rec.do("sched.replay", func() { res = sched.Replay(env, ct, st, &tr) })
				env.M.SetTrace(nil)
				trials++
				steps += res.Steps
				accesses += tr.Len()
				in := detect.TrialInput{Console: res.Console, Trace: &tr, Hung: res.Hung, Deadlock: res.Deadlock}
				rec.do("kernel.fsck", func() { in.PostScan = env.K.FsckHost() })
				rec.do("detect.hb", func() { detect.FindRacesHB(&tr) })
				rec.do("detect.lockset", func() { detect.FindRaces(&tr) })
				rec.do("detect.torn", func() { detect.FindTornReads(&tr) })
				rec.do("detect.console", func() { detect.CheckConsole(res.Console, nil) })
				rec.do("detect.analyze", func() { reports += len(detect.Analyze(in, art.opts.Detect)) })
				rec.do("cover.pairs", func() { cov.AddTrace(&tr) })
				rec.do("cover.segments", func() { segs.AddTrace(&tr) })
				if ct.Hint != nil {
					rec.do("sched.channel", func() { sched.ChannelExercised(&tr, ct.Hint) })
				}
				// A mutation trial: the same state replayed with two
				// decisions flipped inside the recorded run.
				mut := *st
				mut.Flips = []int{tr.Len() / 3, tr.Len() / 2}
				rec.do("sched.mutated_replay", func() { sched.Replay(env, ct, &mut, &scratch) })
				rec.do("exec.pair_seq", func() {
					seqSteps += env.RunPair(ct.Writer, ct.Reader, vm.SeqScheduler{}, &scratch).Steps
				})
				rec.do("exec.pair_alt", func() { env.RunPair(ct.Writer, ct.Reader, alternate, &scratch) })
				env.M.SetTrace(nil)
			}
		})
		rec.do("cover.segments.merge", func() { merged.Merge(segs) })

		// Allocation deltas, one sample per test, on trial 0's trace.
		st := trialState(ct, seeds[i], 0)
		var res exec.Result
		alloc["replay"] += mallocsOf(func() { res = sched.Replay(env, ct, st, &tr) })
		env.M.SetTrace(nil)
		in := detect.TrialInput{Console: res.Console, Trace: &tr, PostScan: env.K.FsckHost()}
		alloc["hb"] += mallocsOf(func() { detect.FindRacesHB(&tr) })
		alloc["analyze"] += mallocsOf(func() { detect.Analyze(in, art.opts.Detect) })
		alloc["pairs"] += mallocsOf(func() { cov.AddTrace(&tr) })
		alloc["segments"] += mallocsOf(func() { segs.AddTrace(&tr) })
		alloc["pair_seq"] += mallocsOf(func() {
			env.RunPair(ct.Writer, ct.Reader, vm.SeqScheduler{}, &scratch)
		})
		env.M.SetTrace(nil)
	}

	perTrial := func(name string) float64 {
		d, _ := rec.total(name)
		return nsPer(d, trials)
	}
	nTests := float64(len(tests))
	lm["vm.restore.ns_per_trial"] = perTrial("vm.restore")
	lm["sched.replay.ns_per_trial"] = perTrial("sched.replay")
	lm["sched.replay.allocs_per_trial"] = alloc["replay"] / nTests
	lm["sched.mutated_replay.ns_per_trial"] = perTrial("sched.mutated_replay")
	lm["kernel.fsck.ns_per_trial"] = perTrial("kernel.fsck")
	lm["detect.hb.ns_per_trial"] = perTrial("detect.hb")
	hb, _ := rec.total("detect.hb")
	lm["detect.hb.ns_per_access"] = nsPer(hb, accesses)
	lm["detect.hb.allocs_per_trial"] = alloc["hb"] / nTests
	lm["detect.lockset.ns_per_trial"] = perTrial("detect.lockset")
	lm["detect.torn.ns_per_trial"] = perTrial("detect.torn")
	lm["detect.console.ns_per_trial"] = perTrial("detect.console")
	lm["detect.analyze.ns_per_trial"] = perTrial("detect.analyze")
	lm["detect.analyze.allocs_per_trial"] = alloc["analyze"] / nTests
	lm["detect.reports_per_trial"] = ratio(float64(reports), float64(trials))
	lm["cover.pairs.ns_per_trial"] = perTrial("cover.pairs")
	lm["cover.pairs.allocs_per_trial"] = alloc["pairs"] / nTests
	lm["cover.segments.ns_per_trial"] = perTrial("cover.segments")
	lm["cover.segments.allocs_per_trial"] = alloc["segments"] / nTests
	merge, _ := rec.total("cover.segments.merge")
	lm["cover.segments.merge_ns_per_test"] = nsPer(merge, len(tests))
	lm["sched.channel.ns_per_trial"] = perTrial("sched.channel")
	lm["exec.pair_seq.ns_per_trial"] = perTrial("exec.pair_seq")
	seq, _ := rec.total("exec.pair_seq")
	alt, _ := rec.total("exec.pair_alt")
	lm["exec.pair_seq.ns_per_step"] = nsPer(seq, seqSteps)
	lm["exec.pair_seq.allocs_per_trial"] = alloc["pair_seq"] / nTests
	lm["sched.policy.ns_per_trial"] = lm["sched.replay.ns_per_trial"] - lm["exec.pair_seq.ns_per_trial"]
	lm["vm.handoff.ns_per_switch"] = nsPer(alt-seq, picks)

	// The explorer itself over the same tests, with and without incidental
	// adoption.
	explore := func(name string, disable bool) (perTrial, mallocs, bytes float64) {
		x := explorerFor(art, env, ctx.sc.decompTrials)
		x.DisableIncidental = disable
		ran := 0
		var d time.Duration
		mallocs, bytes = allocsOf(func() {
			d = rec.do(name, func() {
				for i, ct := range tests {
					x.Seed = seeds[i]
					out := x.Explore(ct)
					ran += out.Trials
				}
			})
		})
		n := float64(ran)
		return nsPer(d, ran), ratio(mallocs, n), ratio(bytes, n)
	}
	full, mallocs, bytes := explore("sched.explore", false)
	bare, _, _ := explore("sched.explore_noincidental", true)
	children := lm["sched.replay.ns_per_trial"] + lm["kernel.fsck.ns_per_trial"] +
		lm["detect.analyze.ns_per_trial"] + lm["cover.pairs.ns_per_trial"] +
		lm["cover.segments.ns_per_trial"] + lm["sched.channel.ns_per_trial"]
	lm["sched.explore.ns_per_trial"] = full
	lm["sched.explore.allocs_per_trial"] = mallocs
	lm["sched.explore.bytes_per_trial"] = bytes
	lm["sched.incidental_delta.ns_per_trial"] = full - bare
	lm["sched.explore_self.ns_per_trial"] = full - children
	lm["probe_coverage_pct"] = 100 * ratio(children, full)
}

// trialState synthesizes the state of trial k of a test explored from seed:
// the hint alone under test, no flags yet.
func trialState(ct sched.ConcurrentTest, seed int64, k int) *sched.ReproState {
	st := &sched.ReproState{Seed: seed + int64(k), Trial: k}
	if ct.Hint != nil {
		st.PMCs = []pmc.PMC{*ct.Hint}
	}
	return st
}

// foldAndWorkers prices the pipeline's result fold against a bare fleet on
// the same tests and seeds, and checks that two workers produce the report
// of one.
func foldAndWorkers(t *tracedResult, art *artifacts, ctx *runCtx, rec *recorder) {
	lm := t.layers
	tests, seeds := probeTests(art, ctx)
	fresh := func(workers int) (*core.Pipeline, *core.Report) {
		o := art.opts
		o.Workers = workers
		o.Feedback = false
		p := pipelineOver(o, art.pipe.Corpus, art.pipe.Profiles, art.pipe.PMCs)
		return p, p.NewReport()
	}
	// Each side runs twice, mirrored (A B B A), so that drift in the
	// process — heap growth, cache warmth — cancels out of the difference.
	x := explorerFor(art, nil, art.opts.Trials)
	fsck := func(e *exec.Env) []string { return e.K.FsckHost() }
	var r1 *core.Report
	var whole, bare time.Duration
	execute := func() {
		p, r := fresh(1)
		whole += rec.do("core.execute_tests", func() { p.ExecuteTests(r, tests) })
		r1 = r
	}
	exploreAll := func() {
		fleet := sched.NewFleet(*x, []*exec.Env{ctx.env}, fsck)
		bare += rec.do("sched.explore_all", func() { fleet.ExploreAll(tests, seeds) })
	}
	execute()
	exploreAll()
	exploreAll()
	execute()
	whole, bare = whole/2, bare/2
	lm["core.fold.ns_per_test"] = nsPer(whole-bare, len(tests))

	lm["par.exec.speedup_w2"] = 0
	if runtime.NumCPU() >= 2 {
		p2, r2 := fresh(2)
		two := rec.do("core.execute_tests_w2", func() { p2.ExecuteTests(r2, tests) })
		lm["par.exec.speedup_w2"] = ratio(float64(whole), float64(two))
		d1, _ := stableDigest(r1)
		d2, _ := stableDigest(r2)
		t.checks["workers2_digest"] = d2
		if d1 != d2 {
			t.fail("Workers: 2 digest %s differs from Workers: 1 digest %s", d2, d1)
		}
	}
}

// feedbackProbe prices the closed loop's planning: RunFeedback's wall minus
// the stage-4 time it reports, per test.
func feedbackProbe(art *artifacts, ctx *runCtx, lm layers) {
	o := art.opts
	o.Feedback = true
	o.FeedbackRounds = ctx.sc.fbRounds
	p := pipelineOver(o, art.pipe.Corpus, art.pipe.Profiles, art.pipe.PMCs)
	r := p.NewReport()
	d := timed(func() { p.RunFeedback(r, ctx.sc.fbTests) })
	lm["core.feedback_plan.ns_per_test"] = nsPer(d-r.ExecTime, r.TestedTests)
}

// stateProbes prices the artifact store: the same campaign with a state
// dir (cold), then again over it (warm), against the plain run.
func stateProbes(t *tracedResult, w workload, ctx *runCtx, opts core.Options, plain unitResult, lm layers) {
	dir, err := os.MkdirTemp(ctx.tmp, "state-")
	if err != nil {
		t.fail("state dir: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	opts.StateDir = dir
	base := plain.Wall
	if w.name == "frontend" {
		// No campaign ran yet on this workload; price a plain one first.
		base = campaignUnit(ctx, campaignOpts(ctx.sc, opts.Seed, false)).Wall
	}
	cold := campaignUnit(ctx, opts)
	hits0 := obs.C(obs.MStoreHits).Value()
	warm := campaignUnit(ctx, opts)
	lm["core.state_cold.overhead_pct"] = 100 * (ratio(float64(cold.Wall), float64(base)) - 1)
	lm["core.resume_warm.ns_per_campaign"] = float64(warm.Wall)
	lm["store.warm_hits"] = float64(obs.C(obs.MStoreHits).Value() - hits0)
	if cold.Stable != warm.Stable || (w.name != "frontend" && cold.Stable != plain.Stable) {
		t.fail("state dir changed the report: plain %s cold %s warm %s", plain.Stable, cold.Stable, warm.Stable)
	}
	var objects, size int64
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		objects++
		size += info.Size()
		return nil
	})
	if err != nil {
		t.fail("walk state dir: %v", err)
	}
	lm["store.objects_per_campaign"] = float64(objects)
	lm["store.bytes_per_campaign"] = float64(size)
}

// guestProbes times sequential execution, profiling, edge coverage, trace
// filtering, program generation and the corpus codec on the unit's corpus.
func guestProbes(t *tracedResult, art *artifacts, ctx *runCtx) {
	lm := t.layers
	env := ctx.env
	progs := art.pipe.Corpus.Progs
	n := len(progs)
	lm["exec.sequential.ns_per_test"] = nsPer(timed(func() {
		for _, p := range progs {
			env.RunSequential(p, nil)
		}
	}), n)
	profiled := 0
	var d time.Duration
	mallocs, _ := allocsOf(func() {
		d = timed(func() {
			for _, p := range progs {
				accs, _, _ := env.Profile(p)
				profiled += accs.Len()
			}
		})
	})
	lm["exec.profile.ns_per_test"] = nsPer(d, n)
	lm["exec.profile.allocs_per_access"] = ratio(mallocs, float64(profiled))

	var tr trace.Trace
	var edges, filter time.Duration
	acc := cover.NewEdges()
	raw := 0
	for _, p := range progs {
		env.RunSequential(p, &tr)
		env.M.SetTrace(nil)
		raw += tr.Len()
		edges += timed(func() { acc.AddTrace(&tr) })
		filter += timed(func() {
			b := trace.DefaultFilter(0).Apply(&tr)
			trace.MarkDoubleFetches(&b)
		})
	}
	lm["cover.edges.ns_per_test"] = nsPer(edges, n)
	lm["trace.filter.ns_per_access"] = nsPer(filter, raw)

	const boots = 5
	lm["exec.boot.ns"] = nsPer(timed(func() {
		for i := 0; i < boots; i++ {
			exec.NewEnv(env.Cfg)
		}
	}), boots)
	lm["exec.clone.ns"] = nsPer(timed(func() {
		for i := 0; i < boots; i++ {
			env.Clone()
		}
	}), boots)

	const gen = 2000
	g := fuzz.NewGenerator(art.opts.Seed)
	lm["fuzz.generate.ns_per_prog"] = nsPer(timed(func() {
		for i := 0; i < gen/2; i++ {
			g.Mutate(g.Generate())
		}
	}), gen)

	var buf bytes.Buffer
	var codecErr error
	lm["corpus.codec.ns_per_prog"] = nsPer(timed(func() {
		if codecErr = corpus.EncodeCorpus(&buf, art.pipe.Corpus); codecErr == nil {
			_, codecErr = corpus.DecodeCorpus(&buf)
		}
	}), n)
	if codecErr != nil {
		t.fail("corpus codec round trip: %v", codecErr)
	}
}

// identifyProbes times Algorithm 1 through both engines, the PMC codec and
// the clustering strategies on the unit's profiles.
func identifyProbes(t *tracedResult, art *artifacts) {
	lm := t.layers
	profiles, opt := art.pipe.Profiles, art.opts.PMC
	n := len(profiles)
	var set *pmc.Set
	var one time.Duration
	mallocs, _ := allocsOf(func() {
		one = timed(func() { set = pmc.IdentifyParallel(profiles, opt, 1) })
	})
	lm["pmc.identify.ns_per_profile"] = nsPer(one, n)
	lm["pmc.identify.allocs_per_profile"] = ratio(mallocs, float64(n))
	lm["pmc.pmcs_per_profile"] = ratio(float64(set.Len()), float64(n))
	lm["pmc.identify.speedup_w2"] = 0
	if runtime.NumCPU() >= 2 {
		two := timed(func() { pmc.IdentifyParallel(profiles, opt, 2) })
		lm["pmc.identify.speedup_w2"] = ratio(float64(one), float64(two))
	}
	lm["pmc.incremental.ns_per_profile"] = nsPer(timed(func() { incrementalOver(profiles, opt) }), n)
	lm["pmc.incremental.append1_ns"] = 0
	if n > 1 {
		inc := incrementalOver(profiles[:n-1], opt)
		lm["pmc.incremental.append1_ns"] = float64(timed(func() { inc.AddBatch(profiles[n-1:]) }))
	}
	var buf bytes.Buffer
	var codecErr error
	codec := timed(func() {
		if codecErr = pmc.EncodeSet(&buf, set); codecErr == nil {
			_, codecErr = pmc.DecodeSet(&buf)
		}
	})
	lm["pmc.codec.ns_per_pmc"] = nsPer(codec, set.Len())
	if codecErr != nil {
		t.fail("PMC set codec round trip: %v", codecErr)
	}

	var cs []cluster.Cluster
	lm["cluster.sinspair.ns_per_pmc"] = nsPer(timed(func() { cs = cluster.Clusters(set, cluster.SInsPair) }), set.Len())
	lm["cluster.all_strategies.ns"] = float64(timed(func() {
		for _, s := range cluster.Strategies {
			cluster.Clusters(set, s)
		}
	}))
	rng := rand.New(rand.NewSource(art.opts.Seed))
	lm["cluster.order.ns"] = float64(timed(func() {
		cluster.OrderClusters(cs, cluster.UncommonFirst, rng)
		for i := range cs {
			cluster.Exemplar(&cs[i], rng)
		}
	}))
}

// triageProbe minimizes every crash-level finding of the unit's report and
// replays each minimized bundle to its own signature. A finding that does
// not minimize or replay lowers triage.repro_rate; it does not fail the run,
// since that rate is the measure of it.
func triageProbe(t *tracedResult, art *artifacts, ctx *runCtx, lm layers) {
	r := art.report
	var findings, replays, reproduced int
	var orig, kept int
	var spent time.Duration
	var lost []string
	for _, id := range r.BugIDs() {
		rec := r.Issues[id]
		if rec.Repro == nil {
			continue
		}
		findings++
		var res *triage.Result
		var err error
		spent += timed(func() {
			res, err = triage.Minimize(ctx.env, triage.Finding{Test: rec.Test, State: rec.Repro, BugID: id},
				triage.Options{Detect: art.opts.Detect})
		})
		if err != nil {
			lost = append(lost, fmt.Sprintf("#%d: %v", id, err))
			continue
		}
		s := res.Stats
		replays += s.Replays
		orig += s.DecisionsOrig + s.WriterCallsOrig + s.ReaderCallsOrig
		kept += s.DecisionsMin + s.WriterCallsMin + s.ReaderCallsMin
		issues := replayIssues(ctx.env, res.Test, res.State, art.opts.Detect)
		if sig, ok := triage.SignatureOfIssues(issues, res.Test.Hint, id); ok && sig == res.Signature {
			reproduced++
		} else {
			lost = append(lost, fmt.Sprintf("#%d: minimized bundle does not replay to %s", id, res.Signature.Key()))
		}
	}
	if len(lost) > 0 {
		t.checks["triage_lost"] = lost
	}
	lm["triage.minimize.ns_per_finding"] = nsPer(spent, findings)
	lm["triage.replays_per_finding"] = ratio(float64(replays), float64(findings))
	lm["triage.shrink_ratio"] = ratio(float64(kept), float64(orig))
	lm["triage.repro_rate"] = ratio(float64(reproduced), float64(findings))
}

// queueProbes cycles the unit's tests through a queue as jobs, in process
// and over loopback TCP.
func queueProbes(t *tracedResult, art *artifacts, lm layers) {
	jobs := make([]queue.Job, len(art.tests))
	size := 0
	for i, ct := range art.tests {
		jobs[i] = queue.Job{ID: i, Writer: ct.Writer, Reader: ct.Reader, Hint: ct.Hint, Pair: ct.Pair}
		b, err := queue.EncodeJob(jobs[i])
		if err != nil {
			t.fail("encode job %d: %v", i, err)
			return
		}
		size += len(b)
	}
	n := len(jobs)
	lm["queue.job.bytes"] = ratio(float64(size), float64(n))

	type leaser interface {
		Report(queue.JobResult) error
		Ack(uint64) error
	}
	cycle := func(q *queue.Queue, lease func() (queue.Lease, error), l leaser) (push, drain time.Duration, err error) {
		push = timed(func() {
			for _, j := range jobs {
				if err == nil {
					err = q.Push(j)
				}
			}
		})
		drain = timed(func() {
			for range jobs {
				var ls queue.Lease
				if ls, err = lease(); err != nil {
					return
				}
				if err = l.Report(queue.JobResult{JobID: ls.Job.ID, Trials: 1}); err != nil {
					return
				}
				if err = l.Ack(ls.ID); err != nil {
					return
				}
			}
		})
		return push, drain, err
	}

	local := queue.New()
	push, drain, err := cycle(local, local.TryLease, local)
	local.Close()
	if err != nil {
		t.fail("local queue cycle: %v", err)
	}
	lm["queue.push.ns_per_job"] = nsPer(push, n)
	lm["queue.local_cycle.ns_per_job"] = nsPer(drain, n)

	lm["queue.tcp_cycle.ns_per_job"] = 0
	remote := queue.New()
	defer remote.Close()
	srv, err := queue.Serve(remote, "127.0.0.1:0")
	if err != nil {
		t.fail("serve queue: %v", err)
		return
	}
	defer srv.Close()
	cl, err := queue.DialOpts(srv.Addr(), queue.DialOptions{Seed: art.opts.Seed})
	if err != nil {
		t.fail("dial queue: %v", err)
		return
	}
	_, drain, err = cycle(remote, cl.Lease, cl)
	// The client must close before the server: Server.Close waits for
	// in-flight handlers.
	cl.Close()
	if err != nil {
		t.fail("tcp queue cycle: %v", err)
	}
	lm["queue.tcp_cycle.ns_per_job"] = nsPer(drain, n)
}

// storeProbes writes and reads back the unit's corpus programs as objects.
func storeProbes(t *tracedResult, art *artifacts, ctx *runCtx, lm layers) {
	lm["store.put.ns_per_object"], lm["store.get.ns_per_object"] = 0, 0
	dir, err := os.MkdirTemp(ctx.tmp, "store-")
	if err != nil {
		t.fail("store dir: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		t.fail("open store: %v", err)
		return
	}
	progs := art.pipe.Corpus.Progs
	payloads := make([][]byte, len(progs))
	for i, p := range progs {
		if payloads[i], err = p.Marshal(); err != nil {
			t.fail("marshal program %d: %v", i, err)
			return
		}
	}
	digests := make([]store.Digest, len(payloads))
	put := timed(func() {
		for i, b := range payloads {
			if digests[i], err = st.Put(store.KindCorpus, b); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.fail("store put: %v", err)
		return
	}
	get := timed(func() {
		for _, d := range digests {
			if _, err = st.Get(store.KindCorpus, d); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.fail("store get: %v", err)
		return
	}
	lm["store.put.ns_per_object"] = nsPer(put, len(payloads))
	lm["store.get.ns_per_object"] = nsPer(get, len(payloads))
}

// obsProbes prices the three obs primitives on the hot paths.
func obsProbes(lm layers) {
	const n = 1 << 16
	c := obs.C("bench.probe")
	lm["obs.counter.ns"] = nsPer(timed(func() {
		for i := 0; i < n; i++ {
			c.Inc()
		}
	}), n)
	lm["obs.emit.ns"] = nsPer(timed(func() {
		for i := 0; i < n; i++ {
			obs.Emit("bench.probe", obs.A("i", i))
		}
	}), n)
	lm["obs.span.ns"] = nsPer(timed(func() {
		for i := 0; i < n; i++ {
			obs.StartSpan("bench.probe").End()
		}
	}), n)
}
