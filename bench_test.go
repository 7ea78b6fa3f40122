package snowboard_test

// The root benchmarks time the stages §5.4 reports throughput for: PMC
// identification, concurrent-test generation and concurrent-test execution
// under Snowboard and SKI. Every count the paper's evaluation reports
// (trials to expose, issues per method, precision, the ablations) is a
// table EXPERIMENTS.md prints and TestDocTables (doctables_test.go)
// regenerates; none of these benchmarks reports one. Run them with:
//
//	go test -run '^$' -bench . -benchmem .
//
// Absolute values differ from the paper's (its substrate was real Linux
// under a QEMU/SKI hypervisor on a GCP fleet).

import (
	"sync"
	"testing"

	"snowboard"
	"snowboard/internal/detect"
	"snowboard/internal/pmc"
	"snowboard/internal/sched"
)

// newAnalysis builds the shared corpus, profiles and PMC database that the
// stage-4 experiments run on (5.12-rc3, seed 11, fuzz 600, corpus 150),
// mirroring the paper's shared machine-C profiling stage.
func newAnalysis(tb testing.TB) *snowboard.Pipeline {
	tb.Helper()
	opts := snowboard.DefaultOptions()
	opts.Seed = 11
	opts.FuzzBudget = 600
	opts.CorpusCap = 150
	p := snowboard.NewPipeline(opts)
	r := p.NewReport()
	p.BuildCorpus(r)
	if err := p.ProfileAll(r); err != nil {
		tb.Fatal(err)
	}
	p.IdentifyPMCs(r)
	return p
}

var analysis struct {
	sync.Mutex
	p *snowboard.Pipeline
}

// sharedAnalysis is newAnalysis, built once per test process and never
// closed. A build that fails is not kept, so the next caller builds again.
func sharedAnalysis(tb testing.TB) *snowboard.Pipeline {
	tb.Helper()
	analysis.Lock()
	defer analysis.Unlock()
	if analysis.p == nil {
		analysis.p = newAnalysis(tb)
	}
	return analysis.p
}

// identifyPair profiles two programs and returns the PMC set plus the hint
// matching the instruction-name prefixes.
func identifyPair(tb testing.TB, env *snowboard.Env, writer, reader *snowboard.Prog, wpfx, rpfx string) (*snowboard.PMCSet, *snowboard.PMC) {
	tb.Helper()
	var profiles []snowboard.Profile
	for i, p := range []*snowboard.Prog{writer, reader} {
		accs, df, res := env.Profile(p)
		if res.Crashed() {
			tb.Fatalf("profiling crashed: %v", res.Faults)
		}
		profiles = append(profiles, snowboard.Profile{TestID: i, Accesses: accs, DFLeader: df})
	}
	set := snowboard.Identify(profiles)
	return set, findHint(tb, set, hintSpec{wpfx, rpfx})
}

// l2tpTest profiles the Figure 1 tests in a fresh 5.12-rc3 kernel and
// returns the kernel, the PMC set and the concurrent test hinted with the
// tunnel-list publication.
func l2tpTest(tb testing.TB) (*snowboard.Env, *snowboard.PMCSet, snowboard.ConcurrentTest) {
	env := snowboard.NewEnv(snowboard.V5_12_RC3)
	writer, reader := l2tpWriter(), l2tpReader()
	set, hint := identifyPair(tb, env, writer, reader,
		"l2tp_tunnel_register:list_add_rcu", "l2tp_tunnel_get:rcu_dereference_list")
	return env, set, snowboard.ConcurrentTest{Writer: writer, Reader: reader, Hint: hint}
}

// execExplorer is a one-trial explorer of the Figure 1 test under mode with
// the console oracle only, so an execution measures the guest and the
// scheduler, not the analysis.
func execExplorer(env *snowboard.Env, set *snowboard.PMCSet, mode sched.Mode) *snowboard.Explorer {
	return &snowboard.Explorer{Env: env, Trials: 1, Mode: mode, Detect: detect.Options{Console: true}, KnownPMCs: set}
}

// BenchmarkPMCIdentification measures Algorithm 1 runtime over the shared
// corpus profile (paper: ~80 machine-hours dominated by S-FULL sorting).
func BenchmarkPMCIdentification(b *testing.B) {
	shared := sharedAnalysis(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pmc.Identify(shared.Profiles, pmc.DefaultOptions())
	}
}

// BenchmarkTestGenerationThroughput measures concurrent-test generation
// rate (paper: >1000 tests/s).
func BenchmarkTestGenerationThroughput(b *testing.B) {
	shared := sharedAnalysis(b)
	opts := shared.Opts
	opts.TestBudget = 1 << 30
	p := snowboard.NewPipeline(opts)
	p.SetCorpus(shared.Corpus)
	p.SetProfiles(shared.Profiles)
	p.SetPMCs(shared.PMCs)
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
// Snowboard slightly faster because SKI performs more vCPU switches;
// TestDocTables/switches counts them).
func BenchmarkExecThroughputSnowboardVsSKI(b *testing.B) {
	for _, mode := range []sched.Mode{snowboard.ModeSnowboard, snowboard.ModeSKI} {
		b.Run(mode.String(), func(b *testing.B) {
			env, set, ct := l2tpTest(b)
			defer env.Close()
			x := execExplorer(env, set, mode)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x.Seed = int64(i) + 1
				x.Explore(ct)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()*60, "exec/min")
		})
	}
}
