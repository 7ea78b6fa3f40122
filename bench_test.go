package snowboard_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§5) against the simulated substrate, reporting the paper's
// quantities as custom benchmark metrics. Absolute values differ from the
// paper (its substrate was real Linux under a QEMU/SKI hypervisor on a GCP
// fleet); the *shape* — which method wins, by roughly what factor — is the
// reproduction target. EXPERIMENTS.md records paper-vs-measured values.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Individual experiments: -bench=Table3, -bench=Figure1, etc.

import (
	"fmt"
	"testing"

	"snowboard"
	"snowboard/internal/cluster"
	"snowboard/internal/detect"
	"snowboard/internal/kernel"
	"snowboard/internal/pmc"
	"snowboard/internal/sched"
	"snowboard/internal/trace"
)

// sharedAnalysis builds one corpus + profile + PMC database per (version,
// budget) and caches it across benchmarks, mirroring the paper's shared
// machine-C profiling stage.
type sharedAnalysis struct {
	pipe *snowboard.Pipeline
	rep  *snowboard.Report
}

var analysisCache = map[string]*sharedAnalysis{}

func analysisFor(b *testing.B, version snowboard.Version, fuzzN, corpusN int) *sharedAnalysis {
	b.Helper()
	key := fmt.Sprintf("%s/%d/%d", version, fuzzN, corpusN)
	if a, ok := analysisCache[key]; ok {
		return a
	}
	opts := snowboard.DefaultOptions()
	opts.Version = version
	opts.Seed = 11
	opts.FuzzBudget = fuzzN
	opts.CorpusCap = corpusN
	p := snowboard.NewPipeline(opts)
	r := p.NewReport()
	p.BuildCorpus(r)
	if err := p.ProfileAll(r); err != nil {
		b.Fatal(err)
	}
	p.IdentifyPMCs(r)
	a := &sharedAnalysis{pipe: p, rep: r}
	analysisCache[key] = a
	return a
}

// identifyPair profiles two programs and returns the PMC set plus the hint
// matching the instruction-name prefixes.
func identifyPair(b *testing.B, env *snowboard.Env, writer, reader *snowboard.Prog, wpfx, rpfx string) (*snowboard.PMCSet, *snowboard.PMC) {
	b.Helper()
	var profiles []snowboard.Profile
	for i, p := range []*snowboard.Prog{writer, reader} {
		accs, df, res := env.Profile(p)
		if res.Crashed() {
			b.Fatalf("profiling crashed: %v", res.Faults)
		}
		profiles = append(profiles, snowboard.Profile{TestID: i, Accesses: accs, DFLeader: df})
	}
	set := snowboard.Identify(profiles)
	for key := range set.Entries {
		if len(wpfx) > 0 && key.Write.Ins.Name()[:min(len(wpfx), len(key.Write.Ins.Name()))] != wpfx {
			continue
		}
		if len(rpfx) > 0 && key.Read.Ins.Name()[:min(len(rpfx), len(key.Read.Ins.Name()))] != rpfx {
			continue
		}
		h := key
		return set, &h
	}
	b.Fatalf("hint PMC (%s -> %s) not identified", wpfx, rpfx)
	return nil, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// trialsToIssue explores the concurrent test and returns the 1-based trial
// on which the target issue (by Table 2 id and kind) surfaced, or cap+1.
func trialsToIssue(env *snowboard.Env, set *snowboard.PMCSet, ct snowboard.ConcurrentTest,
	mode sched.Mode, seed int64, cap int, bugID int, kind detect.IssueKind) (int, *snowboard.ExploreOutcome) {
	x := &snowboard.Explorer{
		Env: env, Trials: cap, Seed: seed, Mode: mode,
		Detect: detect.DefaultOptions(), KnownPMCs: set,
		Fsck: func() []string { return env.K.FsckHost() },
	}
	out := x.Explore(ct)
	for _, is := range out.Issues {
		if is.BugID == bugID && is.Kind == kind {
			return out.TrialOf(is) + 1, &out
		}
	}
	return cap + 1, &out
}

// --- Figure 1 / Case 2: the l2tp order violation ---

// BenchmarkFigure1L2TPBug measures interleaving trials to reproduce the
// Figure 1 null dereference with the PMC hint (paper: ~9.76 interleavings
// per bug-exposing test for Snowboard).
func BenchmarkFigure1L2TPBug(b *testing.B) {
	total := 0
	for i := 0; i < b.N; i++ {
		env := snowboard.NewEnv(snowboard.V5_12_RC3)
		writer, reader := l2tpWriter(), l2tpReader()
		set, hint := identifyPair(b, env, writer, reader,
			"l2tp_tunnel_register:list_add_rcu", "l2tp_tunnel_get:rcu_dereference_list")
		n, _ := trialsToIssue(env, set, snowboard.ConcurrentTest{Writer: writer, Reader: reader, Hint: hint},
			snowboard.ModeSnowboard, int64(i)*7919+1, 1024, 12, detect.KindPanic)
		env.Close()
		total += n
	}
	b.ReportMetric(float64(total)/float64(b.N), "trials/expose")
}

// --- Figure 3 / Case 1: the torn MAC address ---

// BenchmarkFigure3MACRace measures trials to detect the
// eth_commit_mac_addr_change/dev_ifsioc_locked race and reports how often a
// torn (corrupted) MAC was directly witnessed.
func BenchmarkFigure3MACRace(b *testing.B) {
	totalTrials, torn := 0, 0
	for i := 0; i < b.N; i++ {
		env := snowboard.NewEnv(snowboard.V5_3_10)
		writer := P(
			sock(kernel.AFInet, kernel.SockDgram, 0),
			CR(kernel.SysIoctlNr, snowboard.ResultArg(0), snowboard.Const(kernel.SIOCSIFHWADDR), snowboard.Const(0x2)),
		)
		reader := P(
			sock(kernel.AFInet, kernel.SockDgram, 0),
			CR(kernel.SysIoctlNr, snowboard.ResultArg(0), snowboard.Const(kernel.SIOCGIFHWADDR), snowboard.Const(0)),
		)
		set, hint := identifyPair(b, env, writer, reader, "eth_commit_mac_addr_change", "dev_ifsioc_locked:memcpy")
		n, out := trialsToIssue(env, set, snowboard.ConcurrentTest{Writer: writer, Reader: reader, Hint: hint},
			snowboard.ModeSnowboard, int64(i)*13+1, 256, 9, detect.KindDataRace)
		env.Close()
		totalTrials += n
		for _, is := range out.Issues {
			if is.BugID == 9 && len(is.Desc) >= 4 && is.Desc[:4] == "Torn" {
				torn++
			}
		}
	}
	b.ReportMetric(float64(totalTrials)/float64(b.N), "trials/expose")
	b.ReportMetric(float64(torn)/float64(b.N), "torn-witness/run")
}

// --- Figure 4 / Case 3: the rhashtable double fetch ---

// BenchmarkFigure4Rhashtable measures trials to crash the kernel through
// the one-instruction double-fetch window in rht_ptr (5.3.10 build).
func BenchmarkFigure4Rhashtable(b *testing.B) {
	total := 0
	for i := 0; i < b.N; i++ {
		env := snowboard.NewEnv(snowboard.V5_3_10)
		writer, reader := msgWriterProg(), msgReaderProg()
		set, hint := identifyPair(b, env, writer, reader, "rht_assign_unlock", "rht_ptr")
		n, _ := trialsToIssue(env, set, snowboard.ConcurrentTest{Writer: writer, Reader: reader, Hint: hint},
			snowboard.ModeSnowboard, int64(i)*31+1, 1024, 1, detect.KindPanic)
		env.Close()
		total += n
	}
	b.ReportMetric(float64(total)/float64(b.N), "trials/expose")
}

// --- Table 2: the full pipeline bug hunt on both kernel versions ---

// BenchmarkTable2FullPipeline runs the whole pipeline per version and
// reports the number of distinct Table 2 issues found within the budget.
func BenchmarkTable2FullPipeline(b *testing.B) {
	for _, version := range []snowboard.Version{snowboard.V5_3_10, snowboard.V5_12_RC3} {
		b.Run(string(version), func(b *testing.B) {
			found := 0
			for i := 0; i < b.N; i++ {
				opts := snowboard.DefaultOptions()
				opts.Version = version
				opts.Seed = int64(i) + 3
				opts.FuzzBudget = 600
				opts.CorpusCap = 150
				opts.TestBudget = 80
				opts.Trials = 16
				r, err := snowboard.Run(opts)
				if err != nil {
					b.Fatal(err)
				}
				found += len(r.BugIDs())
			}
			b.ReportMetric(float64(found)/float64(b.N), "issues/run")
		})
	}
}

// --- Table 3: per-method comparison on a shared corpus ---

// BenchmarkTable3StrategyComparison runs every generation method on the
// same profiled corpus with the same execution budget, reporting exemplar
// counts and issue yields — the Table 3 reproduction.
func BenchmarkTable3StrategyComparison(b *testing.B) {
	shared := analysisFor(b, snowboard.V5_12_RC3, 600, 150)
	for _, m := range snowboard.Methods() {
		b.Run(m.Name, func(b *testing.B) {
			issues, exemplars, tested, exercised, coverPairs := 0, 0, 0, 0, 0
			for i := 0; i < b.N; i++ {
				opts := shared.pipe.Opts
				opts.Method = m
				opts.Seed = int64(i) + 17
				opts.TestBudget = 60
				opts.Trials = 12
				p := snowboard.NewPipeline(opts)
				p.SetCorpus(shared.pipe.Corpus)
				p.SetProfiles(shared.pipe.Profiles)
				p.SetPMCs(shared.pipe.PMCs)
				r := p.NewReport()
				tests := p.GenerateTests(r, opts.TestBudget)
				p.ExecuteTests(r, tests)
				p.Close()
				issues += len(r.BugIDs())
				exemplars = r.ExemplarPMCs
				tested += r.TestedTests
				exercised += r.Exercised
				coverPairs += r.CoverPairs
			}
			b.ReportMetric(float64(issues)/float64(b.N), "issues/run")
			b.ReportMetric(float64(exemplars), "exemplar-clusters")
			b.ReportMetric(float64(exercised)/float64(b.N), "exercised/run")
			// §5.3.1: "prioritizing the test of uncommon instruction-pair
			// clusters leads to higher behavior coverage per test" — the
			// Krace-style alias-pair coverage per run.
			b.ReportMetric(float64(coverPairs)/float64(b.N), "cover-pairs/run")
			_ = tested
		})
	}
}

// --- §5.3.2: PMC identification accuracy ---

// BenchmarkPMCPrecision measures the fraction of PMC-hinted concurrent
// tests whose predicted channel actually occurred in at least one trial
// (paper: 36% precision over prioritized PMC tests, 22% over all tests).
func BenchmarkPMCPrecision(b *testing.B) {
	shared := analysisFor(b, snowboard.V5_12_RC3, 600, 150)
	exercised, tested := 0, 0
	for i := 0; i < b.N; i++ {
		opts := shared.pipe.Opts
		opts.Seed = int64(i) + 29
		opts.TestBudget = 80
		opts.Trials = 12
		p := snowboard.NewPipeline(opts)
		p.SetCorpus(shared.pipe.Corpus)
		p.SetProfiles(shared.pipe.Profiles)
		p.SetPMCs(shared.pipe.PMCs)
		r := p.NewReport()
		tests := p.GenerateTests(r, opts.TestBudget)
		p.ExecuteTests(r, tests)
		p.Close()
		exercised += r.Exercised
		tested += r.TestedPMCs
	}
	b.ReportMetric(100*float64(exercised)/float64(tested), "%exercised")
}

// --- §5.4: stage performance ---

// BenchmarkPMCIdentification measures Algorithm 1 runtime over the shared
// corpus profile (paper: ~80 machine-hours dominated by S-FULL sorting).
func BenchmarkPMCIdentification(b *testing.B) {
	shared := analysisFor(b, snowboard.V5_12_RC3, 600, 150)
	b.ResetTimer()
	var set *snowboard.PMCSet
	for i := 0; i < b.N; i++ {
		set = pmc.Identify(shared.pipe.Profiles, pmc.DefaultOptions())
	}
	b.ReportMetric(float64(set.Len()), "pmcs")
	b.ReportMetric(float64(set.TotalCombinations), "combinations")
}

// BenchmarkTestGenerationThroughput measures concurrent-test generation
// rate (paper: >1000 tests/s).
func BenchmarkTestGenerationThroughput(b *testing.B) {
	shared := analysisFor(b, snowboard.V5_12_RC3, 600, 150)
	opts := shared.pipe.Opts
	opts.TestBudget = 1 << 30
	p := snowboard.NewPipeline(opts)
	p.SetCorpus(shared.pipe.Corpus)
	p.SetProfiles(shared.pipe.Profiles)
	p.SetPMCs(shared.pipe.PMCs)
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		r := p.NewReport()
		tests := p.GenerateTests(r, 1<<30)
		n += len(tests)
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "tests/s")
}

// BenchmarkExecThroughputSnowboardVsSKI compares concurrent-test execution
// throughput under the two schedulers (paper: 193.8 vs 170.3 exec/min —
// Snowboard slightly faster because SKI performs more vCPU switches).
func BenchmarkExecThroughputSnowboardVsSKI(b *testing.B) {
	for _, mode := range []sched.Mode{snowboard.ModeSnowboard, snowboard.ModeSKI} {
		b.Run(mode.String(), func(b *testing.B) {
			env := snowboard.NewEnv(snowboard.V5_12_RC3)
			writer, reader := l2tpWriter(), l2tpReader()
			set, hint := identifyPair(b, env, writer, reader,
				"l2tp_tunnel_register:list_add_rcu", "l2tp_tunnel_get:rcu_dereference_list")
			x := &snowboard.Explorer{
				Env: env, Trials: 1, Mode: mode,
				Detect:    detect.Options{Console: true}, // console-only: measures execution, not analysis
				KnownPMCs: set,
			}
			switches := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x.Seed = int64(i) + 1
				out := x.Explore(snowboard.ConcurrentTest{Writer: writer, Reader: reader, Hint: hint})
				switches += out.Switches
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()*60, "exec/min")
			b.ReportMetric(float64(switches)/float64(b.N), "switches/exec")
		})
	}
}

// BenchmarkInterleavingsToExpose compares mean interleavings needed to
// expose the Figure 1 bug across schedulers (paper: 9.76 for Snowboard vs
// 826.29 for SKI, an 84x gap).
func BenchmarkInterleavingsToExpose(b *testing.B) {
	for _, mode := range []sched.Mode{snowboard.ModeSnowboard, snowboard.ModeSKI, snowboard.ModeRandomWalk} {
		b.Run(mode.String(), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				env := snowboard.NewEnv(snowboard.V5_12_RC3)
				writer, reader := l2tpWriter(), l2tpReader()
				set, hint := identifyPair(b, env, writer, reader,
					"l2tp_tunnel_register:list_add_rcu", "l2tp_tunnel_get:rcu_dereference_list")
				n, _ := trialsToIssue(env, set, snowboard.ConcurrentTest{Writer: writer, Reader: reader, Hint: hint},
					mode, int64(i)*7919+1, 4096, 12, detect.KindPanic)
				env.Close()
				total += n
			}
			b.ReportMetric(float64(total)/float64(b.N), "trials/expose")
		})
	}
}

// --- Ablations (DESIGN.md §"Key design decisions") ---

// BenchmarkAblationValueFilter measures how many PMCs Algorithm 1 emits
// with and without the projected-value inequality test (lines 9–11).
func BenchmarkAblationValueFilter(b *testing.B) {
	shared := analysisFor(b, snowboard.V5_12_RC3, 600, 150)
	for _, tc := range []struct {
		name string
		opt  pmc.Options
	}{
		{"with-value-filter", pmc.DefaultOptions()},
		{"without-value-filter", pmc.Options{AllowSelfPairs: true, SkipValueFilter: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var set *snowboard.PMCSet
			for i := 0; i < b.N; i++ {
				set = pmc.Identify(shared.pipe.Profiles, tc.opt)
			}
			b.ReportMetric(float64(set.Len()), "pmcs")
			b.ReportMetric(float64(set.TotalCombinations), "combinations")
		})
	}
}

// BenchmarkAblationStackFilter measures profile size with and without the
// ESP-based stack-range pruning (§4.1.1).
func BenchmarkAblationStackFilter(b *testing.B) {
	for _, keepStack := range []bool{false, true} {
		name := "stack-filtered"
		if keepStack {
			name = "stack-kept"
		}
		b.Run(name, func(b *testing.B) {
			env := snowboard.NewEnv(snowboard.V5_12_RC3)
			prog := l2tpReader()
			kept := 0
			for i := 0; i < b.N; i++ {
				var tr trace.Trace
				res := env.RunSequential(prog, &tr)
				if res.Crashed() {
					b.Fatalf("crashed: %v", res.Faults)
				}
				env.M.SetTrace(nil)
				f := trace.Filter{Thread: 0, KeepStack: keepStack}
				fb := f.Apply(&tr)
				kept += fb.Len()
			}
			b.ReportMetric(float64(kept)/float64(b.N), "accesses/profile")
		})
	}
}

// BenchmarkAblationIncidentalPMCs compares trials-to-expose with and
// without incidental PMC adoption (Algorithm 2 lines 26–27).
func BenchmarkAblationIncidentalPMCs(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "incidental-on"
		if disable {
			name = "incidental-off"
		}
		b.Run(name, func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				env := snowboard.NewEnv(snowboard.V5_12_RC3)
				writer, reader := l2tpWriter(), l2tpReader()
				set, hint := identifyPair(b, env, writer, reader,
					"l2tp_tunnel_register:list_add_rcu", "l2tp_tunnel_get:rcu_dereference_list")
				x := &snowboard.Explorer{
					Env: env, Trials: 1024, Seed: int64(i)*101 + 7,
					Mode: snowboard.ModeSnowboard, Detect: detect.DefaultOptions(),
					KnownPMCs: set, DisableIncidental: disable,
				}
				out := x.Explore(snowboard.ConcurrentTest{Writer: writer, Reader: reader, Hint: hint})
				env.Close()
				n := 1025
				for _, is := range out.Issues {
					if is.BugID == 12 && is.Kind == detect.KindPanic {
						n = out.TrialOf(is) + 1
					}
				}
				total += n
			}
			b.ReportMetric(float64(total)/float64(b.N), "trials/expose")
		})
	}
}

// BenchmarkFeedbackVsUncommonFirst is the BENCH_feedback.json ablation: the
// round-based segment-yield feedback scheduler against the one-shot
// uncommon-first scheduler on a shared analysis, both handed the same
// TestBudget. The arms do NOT spend it equally — uncommon-first generates one
// test per cluster and stops when the clusters run out — so each arm reports
// the budget it actually spent (tests/run, trials/run) and its yield per
// 1k trials beside the raw totals. Under -short it drops to a smoke scale
// (the CI paper-reproduction smoke) that checks the loop runs, composes
// tests, and reports rounds — not the yield gap.
func BenchmarkFeedbackVsUncommonFirst(b *testing.B) {
	tests, trials := 400, 24
	if testing.Short() {
		tests, trials = 40, 8
	}
	shared := analysisFor(b, snowboard.V5_12_RC3, 600, 150)
	for _, feedback := range []bool{false, true} {
		name := "uncommon-first"
		if feedback {
			name = "feedback"
		}
		b.Run(name, func(b *testing.B) {
			issues, segments, composed, ran, trialsRun := 0, 0, 0, 0, 0
			for i := 0; i < b.N; i++ {
				opts := shared.pipe.Opts
				opts.Seed = int64(i) + 3
				opts.TestBudget = tests
				opts.Trials = trials
				opts.Feedback = feedback
				p := snowboard.NewPipeline(opts)
				p.SetCorpus(shared.pipe.Corpus)
				p.SetProfiles(shared.pipe.Profiles)
				p.SetPMCs(shared.pipe.PMCs)
				r := p.NewReport()
				if feedback {
					p.RunFeedback(r, opts.TestBudget)
				} else {
					cts := p.GenerateTests(r, opts.TestBudget)
					p.ExecuteTests(r, cts)
				}
				p.Close()
				issues += len(r.BugIDs())
				segments += r.CoverSegments
				composed += r.ComposedTests
				ran += r.TestedTests
				trialsRun += r.TrialsRun
				if feedback && r.FeedbackRounds == 0 {
					b.Fatal("feedback arm reported zero rounds")
				}
			}
			b.ReportMetric(float64(issues)/float64(b.N), "issues/run")
			b.ReportMetric(float64(segments)/float64(b.N), "segments/run")
			b.ReportMetric(float64(composed)/float64(b.N), "composed/run")
			b.ReportMetric(float64(ran)/float64(b.N), "tests/run")
			b.ReportMetric(float64(trialsRun)/float64(b.N), "trials/run")
			b.ReportMetric(1000*float64(segments)/float64(trialsRun), "segments/ktrial")
		})
	}
}

// BenchmarkAblationClusterOrder isolates the uncommon-first ordering
// contribution by comparing S-INS-PAIR against Random S-INS-PAIR on bug
// yield (the paper's "Random S-INS-PAIR" row).
func BenchmarkAblationClusterOrder(b *testing.B) {
	shared := analysisFor(b, snowboard.V5_12_RC3, 600, 150)
	for _, order := range []struct {
		name string
		ord  cluster.Order
	}{
		{"uncommon-first", cluster.UncommonFirst},
		{"random-order", cluster.RandomOrder},
	} {
		b.Run(order.name, func(b *testing.B) {
			issues := 0
			for i := 0; i < b.N; i++ {
				opts := shared.pipe.Opts
				opts.Method = snowboard.Method{Name: "S-INS-PAIR*", Kind: 0, Strategy: cluster.SInsPair, Order: order.ord}
				opts.Seed = int64(i) + 41
				opts.TestBudget = 40
				opts.Trials = 12
				p := snowboard.NewPipeline(opts)
				p.SetCorpus(shared.pipe.Corpus)
				p.SetProfiles(shared.pipe.Profiles)
				p.SetPMCs(shared.pipe.PMCs)
				r := p.NewReport()
				tests := p.GenerateTests(r, opts.TestBudget)
				p.ExecuteTests(r, tests)
				p.Close()
				issues += len(r.BugIDs())
			}
			b.ReportMetric(float64(issues)/float64(b.N), "issues/run")
		})
	}
}
