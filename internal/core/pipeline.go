package core

import (
	"fmt"
	"math/rand"
	"time"

	"snowboard/internal/cluster"
	"snowboard/internal/corpus"
	"snowboard/internal/cover"
	"snowboard/internal/detect"
	"snowboard/internal/exec"
	"snowboard/internal/fuzz"
	"snowboard/internal/kernel"
	"snowboard/internal/obs"
	"snowboard/internal/par"
	"snowboard/internal/pmc"
	"snowboard/internal/sched"
	"snowboard/internal/store"
	"snowboard/internal/trace"
)

// Pipeline-level metrics. Stage durations flow through obs spans (one
// histogram per stage, e.g. "stage.profile.duration_ns"); the hand-rolled
// time.Since fields on Report are views over those span measurements.
var (
	mGenTests      = obs.C(obs.MGenTests)
	mIssuesFound   = obs.G(obs.MIssuesFound)
	mCoverPairs    = obs.G(obs.MCoverPairs)
	mCoverSegments = obs.G(obs.MCoverSegments)
)

// Pipeline holds the state flowing between the four stages so that callers
// (and benchmarks) can run stages individually, reuse a profiled corpus
// across strategies — as the paper does when comparing the eleven methods
// on the same machine-C profile — or run everything via Run.
//
// Every stage fans out across Options.Workers goroutines via internal/par.
// There is deliberately no shared rand.Rand: randomized units derive their
// seed from (Opts.Seed, stage, unit index) with par.UnitSeed, so reports
// are bit-identical for any worker count.
type Pipeline struct {
	Opts Options
	Env  *exec.Env

	Corpus   *corpus.Corpus
	Profiles []pmc.Profile
	PMCs     *pmc.Set

	// envs are the per-worker environments: envs[0] is Env, the rest are
	// clones sharing its boot snapshot, created lazily.
	envs []*exec.Env

	// genCalls counts GenerateTests invocations and exploreUnits counts
	// concurrent tests seeded (exploreSeeds), so repeated stage calls keep
	// drawing fresh — but deterministic — seeds, like the old shared rng did.
	genCalls     int
	exploreUnits int

	// segs accumulates interleaving-segment coverage across every
	// ExecuteTests call of this pipeline. Per-test outcomes are folded in
	// test order, so its contents — and the per-test fresh-segment yields
	// the feedback scheduler allocates budget by — are worker-invariant.
	// RunFeedback replaces it when resuming round state.
	segs *cover.Segments

	// store, when attached with UseStore, memoizes stages through the
	// content-addressed artifact store; the digests track the content
	// addresses of the current artifacts (zero = not yet computed).
	store          *store.Store
	corpusDigest   store.Digest
	profilesDigest store.Digest
	pmcDigest      store.Digest

	// trace is the campaign this pipeline's own events (stage.done,
	// campaign.done, feedback.round, triage.minimized) and its local
	// explorers' pmc.tested/cover.new are stitched to: the process default
	// campaign, or an sbd tenant's (Campaign.execute). Events emitted inside
	// fuzz, pmc, exec and detect (cover.new while fuzzing, pmc.identified,
	// pmc.incremental, exec.crash, race.found) take no trace and stay on the
	// process default.
	trace string
}

// OpenPipeline is NewPipeline plus, when opts.StateDir is set, the artifact
// store rooted there attached with UseStore.
func OpenPipeline(opts Options) (*Pipeline, error) {
	p := NewPipeline(opts)
	if opts.StateDir != "" {
		s, err := store.Open(opts.StateDir)
		if err != nil {
			return nil, err
		}
		p.UseStore(s)
	}
	return p, nil
}

// NewPipeline boots the simulated kernel for the configured version. Its
// events are stitched to the process default campaign, joined (or started)
// here.
func NewPipeline(opts Options) *Pipeline {
	if opts.Trials <= 0 {
		opts.Trials = 16
	}
	return &Pipeline{
		Opts:  opts,
		Env:   exec.NewEnv(kernel.Config{Version: opts.Version}),
		segs:  cover.NewSegments(),
		trace: obs.EnsureCampaign("snowboard").Trace,
	}
}

// Close closes the pipeline's environments (exec.Env.Close): a pipeline
// that has run guests and is dropped unclosed leaks their parked vCPU
// coroutines. Its artifacts stay readable. Idempotent.
func (p *Pipeline) Close() {
	p.Env.Close()
	for _, e := range p.envs {
		e.Close()
	}
}

// stageDone flight-records a stage completion with its outcome attributes
// and appends one sample to the live time-series, so /coverage holds one
// sample per stage boundary.
func (p *Pipeline) stageDone(stage string, cached bool, dur time.Duration, outcome ...obs.Attr) {
	attrs := append([]obs.Attr{obs.A("stage", stage), obs.A("cache", cached),
		obs.A("dur_ms", dur.Milliseconds())}, outcome...)
	obs.EmitTrace(p.trace, obs.EvStageDone, attrs...)
	obs.RecordSample()
}

// workerEnvs returns n per-worker environments, cloning from the boot
// snapshot on first use. Clones persist across stages.
func (p *Pipeline) workerEnvs(n int) []*exec.Env {
	if len(p.envs) == 0 {
		p.envs = append(p.envs, p.Env)
	}
	for len(p.envs) < n {
		p.envs = append(p.envs, p.Env.Clone())
	}
	return p.envs[:n]
}

func (p *Pipeline) workers() int { return par.Workers(p.Opts.Workers) }

// BuildCorpus runs the fuzzing campaign (stage 1a), sharded across the
// worker environments. With a store attached, a previous run's corpus for
// the same (version, seed, budget, cap) is loaded instead and the campaign
// is skipped.
func (p *Pipeline) BuildCorpus(r *Report) {
	span := obs.StartSpan("stage.fuzz")
	key := p.fuzzKey()
	var meta fuzzMeta
	if c, out, ok := loadMemo(p, "fuzz", key, corpusCodec, &meta); p.countStage(ok) {
		p.Corpus = c
		p.corpusDigest = out
		r.CorpusSize = meta.CorpusSize
		r.FuzzExecutions = meta.FuzzExecutions
		r.FuzzTime = time.Duration(meta.FuzzTimeNs)
		obs.Diag.Printf("stage fuzz: cache hit (corpus %s, %d tests)", out.Short(), c.Len())
		p.stageDone("fuzz", true, span.End(), obs.A("executed", r.FuzzExecutions), obs.A("corpus", r.CorpusSize))
		return
	}
	res := fuzz.CampaignSharded(p.workerEnvs(p.workers()), p.Opts.Seed, p.Opts.FuzzBudget, p.Opts.CorpusCap)
	p.Corpus = res.Corpus
	r.CorpusSize = p.Corpus.Len()
	r.FuzzExecutions = res.Executed
	r.FuzzTime = span.End()
	p.corpusDigest = saveMemo(p, "fuzz", key, corpusCodec, p.Corpus, fuzzMeta{
		CorpusSize:     r.CorpusSize,
		FuzzExecutions: r.FuzzExecutions,
		FuzzTimeNs:     int64(r.FuzzTime),
	})
	p.stageDone("fuzz", false, r.FuzzTime, obs.A("executed", r.FuzzExecutions), obs.A("corpus", r.CorpusSize),
		obs.A("repeats", res.Repeats))
}

// SetCorpus installs an externally built corpus (e.g. shared across the
// strategy-comparison benchmarks).
func (p *Pipeline) SetCorpus(c *corpus.Corpus) {
	p.Corpus = c
	p.corpusDigest = store.Digest{}
}

// ProfileAll records the shared-memory access set of every corpus test
// from the fixed snapshot (stage 1b), one test per work unit across the
// worker pool. Profiles land indexed by corpus position, so the result is
// identical to the serial loop; if several tests crash, the lowest-indexed
// one is reported, as serially.
func (p *Pipeline) ProfileAll(r *Report) error {
	span := obs.StartSpan("stage.profile")
	key := p.profileKey(contentAddress(p, "profile", &p.corpusDigest, corpusCodec, p.Corpus))
	var meta profileMeta
	if profiles, out, ok := loadMemo(p, "profile", key, profilesCodec, &meta); p.countStage(ok) {
		p.Profiles = profiles
		p.profilesDigest = out
		r.ProfiledAccesses += meta.ProfiledAccesses
		r.ProfileTime = time.Duration(meta.ProfileTimeNs)
		obs.Diag.Printf("stage profile: cache hit (profiles %s, %d tests)", out.Short(), len(profiles))
		p.stageDone("profile", true, span.End(), obs.A("accesses", r.ProfiledAccesses))
		return nil
	}
	envs := p.workerEnvs(p.workers())
	type profiled struct {
		accs    trace.Block
		df      map[int]bool
		crashed bool
		faults  []string
	}
	units := par.Map(len(envs), p.Corpus.Len(), func(w, i int) profiled {
		accs, df, res := envs[w].Profile(p.Corpus.Progs[i])
		if res.Crashed() {
			return profiled{crashed: true, faults: res.Faults}
		}
		return profiled{accs: accs, df: df}
	})
	p.Profiles = p.Profiles[:0]
	p.profilesDigest = store.Digest{}
	accesses := 0
	for i, u := range units {
		if u.crashed {
			span.End()
			return fmt.Errorf("core: corpus test %d crashed during profiling: %v", i, u.faults)
		}
		p.Profiles = append(p.Profiles, pmc.Profile{TestID: i, Accesses: u.accs, DFLeader: u.df})
		accesses += u.accs.Len()
	}
	r.ProfiledAccesses += accesses
	r.ProfileTime = span.End()
	p.profilesDigest = saveMemo(p, "profile", key, profilesCodec, p.Profiles, profileMeta{
		ProfiledAccesses: accesses,
		ProfileTimeNs:    int64(r.ProfileTime),
	})
	p.stageDone("profile", false, r.ProfileTime, obs.A("accesses", r.ProfiledAccesses))
	return nil
}

// SetProfiles installs externally computed profiles.
func (p *Pipeline) SetProfiles(profiles []pmc.Profile) {
	p.Profiles = profiles
	p.profilesDigest = store.Digest{}
}

// IdentifyPMCs runs Algorithm 1 over the profiles (stage 2): an
// exact-profile-set memo hit restores the stored PMC set outright, and
// anything else — no store, or a profile set not identified before, however
// close to one that was — identifies every profile as one batch.
func (p *Pipeline) IdentifyPMCs(r *Report) {
	span := obs.StartSpan("stage.identify")
	key := p.identifyKey(contentAddress(p, "identify", &p.profilesDigest, profilesCodec, p.Profiles))
	var meta identifyMeta
	if set, out, ok := loadMemo(p, "identify", key, pmcSetCodec, &meta); p.countStage(ok) {
		p.PMCs = set
		p.pmcDigest = out
		r.DistinctPMCs = meta.DistinctPMCs
		r.PMCCombinations = meta.PMCCombinations
		r.IdentifyTime = time.Duration(meta.IdentifyTimeNs)
		obs.Diag.Printf("stage identify: cache hit (pmcs %s, %d keys)", out.Short(), set.Len())
		p.stageDone("identify", true, span.End(), obs.A("pmcs", r.DistinctPMCs))
		return
	}
	p.PMCs = pmc.Identify(p.Profiles, p.Opts.PMC)
	r.DistinctPMCs = p.PMCs.Len()
	r.PMCCombinations = p.PMCs.TotalCombinations
	r.IdentifyTime = span.End()
	p.pmcDigest = saveMemo(p, "identify", key, pmcSetCodec, p.PMCs, identifyMeta{
		DistinctPMCs:    r.DistinctPMCs,
		PMCCombinations: r.PMCCombinations,
		IdentifyTimeNs:  int64(r.IdentifyTime),
	})
	p.stageDone("identify", false, r.IdentifyTime, obs.A("pmcs", r.DistinctPMCs))
}

// SetPMCs installs an externally identified PMC set.
func (p *Pipeline) SetPMCs(s *pmc.Set) {
	p.PMCs = s
	p.pmcDigest = store.Digest{}
}

// GenerateTests produces up to budget concurrent tests under the
// configured method (stage 3). For PMC methods it clusters, orders
// uncommon-first (or randomly), and draws one exemplar PMC — and one of its
// test pairs — per cluster. Baselines draw random (or duplicate) pairs.
// Generation is cheap and stays serial; its rng seed derives from the
// invocation index, so repeated calls draw fresh deterministic streams.
func (p *Pipeline) GenerateTests(r *Report, budget int) []sched.ConcurrentTest {
	span := obs.StartSpan("stage.generate")
	rng := rand.New(rand.NewSource(par.UnitSeed(p.Opts.Seed, par.StageGenerate, p.genCalls)))
	p.genCalls++
	if p.Corpus == nil || p.Corpus.Len() == 0 {
		// An exhausted fuzz budget can legitimately select zero programs;
		// the pairing arms below index the corpus, so bail out with a
		// diagnostic instead of panicking in rng.Intn(0).
		note := fmt.Sprintf("generation skipped: empty corpus (method %s)", p.Opts.Method.Name)
		obs.Diag.Printf("stage generate: %s", note)
		r.Notes = append(r.Notes, note)
		span.End()
		return nil
	}
	var out []sched.ConcurrentTest
	defer func() {
		mGenTests.Add(int64(len(out)))
		r.ClusterTime += span.End()
	}()
	switch p.Opts.Method.Kind {
	case MethodPMC:
		cs := cluster.Clusters(p.PMCs, p.Opts.Method.Strategy)
		cluster.OrderClusters(cs, p.Opts.Method.Order, rng)
		r.ExemplarPMCs = len(cs)
		for i := range cs {
			if len(out) >= budget {
				break
			}
			if c, ok := p.drawCandidate(cs, i, rng); ok {
				out = append(out, c.test)
			}
		}
	case MethodRandomPairing:
		for len(out) < budget {
			w := rng.Intn(p.Corpus.Len())
			rd := rng.Intn(p.Corpus.Len())
			out = append(out, sched.ConcurrentTest{
				Writer: p.Corpus.Progs[w],
				Reader: p.Corpus.Progs[rd],
				Pair:   pmc.Pair{Writer: w, Reader: rd},
			})
		}
	case MethodDuplicatePairing:
		for len(out) < budget {
			i := rng.Intn(p.Corpus.Len())
			out = append(out, sched.ConcurrentTest{
				Writer: p.Corpus.Progs[i],
				Reader: p.Corpus.Progs[i].Clone(),
				Pair:   pmc.Pair{Writer: i, Reader: i},
			})
		}
	}
	r.GeneratedTests += len(out)
	return out
}

// ExecuteTests explores each concurrent test (stage 4) across a fleet of
// per-worker explorers, folding findings into the report in test order —
// the fold is byte-for-byte the serial one, because each test's outcome is
// a pure function of (test, derived seed). It returns each test's
// fresh-segment yield against the pipeline-cumulative segment accumulator,
// which the feedback scheduler allocates the next round's budget by.
func (p *Pipeline) ExecuteTests(r *Report, tests []sched.ConcurrentTest) []int {
	span := obs.StartSpan("stage.exec")
	cov := cover.New()
	template := stage4Explorer(p.Env, p.Opts.Trials, p.Opts.Detect)
	// The only difference between local and queue-delivered stage 4: a
	// queue worker (NewWorker) runs the bare template. Giving it these
	// layers too costs bench `fleet` trials_per_s −16.0% for KnownPMCs,
	// −3.4% for Coverage+TrackSegments and −22.9% for all three, with
	// wall_s +29.2%, past BENCHMARK.json's 0.25 bound (measured after a
	// queue turn became one lease frame and one settle frame; EXPERIMENTS.md
	// has the history).
	template.KnownPMCs, template.Coverage, template.TrackSegments = p.PMCs, cov, true
	template.MutateSchedules, template.Trace = p.Opts.Feedback, p.trace
	fleet := sched.NewFleet(template, p.workerEnvs(p.workers()),
		func(e *exec.Env) []string { return e.K.FsckHost() })
	yields := p.foldOutcomes(r, tests, fleet.ExploreAll(tests, p.exploreSeeds(len(tests))))
	r.CoverPairs += cov.Len()
	mCoverPairs.Set(int64(r.CoverPairs))
	d := span.End()
	r.ExecTime += d
	p.stageDone("exec", false, d, obs.A("issues", len(r.Issues)), obs.A("segments", r.CoverSegments))
	return yields
}

// foldOutcomes is the one place an Outcome turns into IssueRecords,
// Unknown, counters and segment yields: outs[i] is tests[i]'s outcome,
// explored by the local fleet or reported through a queue (FoldResults).
func (p *Pipeline) foldOutcomes(r *Report, tests []sched.ConcurrentTest, outs []sched.Outcome) []int {
	unknownSeen := make(map[string]struct{}, len(r.Unknown))
	for _, u := range r.Unknown {
		unknownSeen[u.ID()] = struct{}{}
	}
	yields := make([]int, len(outs))
	segs := p.segs
	for i, out := range outs {
		ct := tests[i]
		if out.Segments != nil {
			yields[i] = segs.Merge(out.Segments)
		}
		r.TestedTests++
		if ct.Hint != nil {
			r.TestedPMCs++
			if out.Exercised {
				r.Exercised++
			}
		}
		r.TrialsRun += out.Trials
		r.Switches += out.Switches
		r.Steps += out.Steps
		for _, is := range out.Issues {
			if is.BugID != 0 {
				rec, seen := r.Issues[is.BugID]
				if !seen {
					rec = IssueRecord{
						Issue:     is,
						TestIndex: r.TestedTests,
						Trial:     out.TrialOf(is),
						Repro:     out.Repro,
						Test:      ct,
					}
				} else if rec.Repro == nil && out.Repro != nil && detect.CrashLevel(is.Kind) {
					// The bug was first seen as its data-race shadow; a
					// later crash-level observation carries the replayable
					// trial — upgrade the record.
					rec.Issue = is
					rec.Repro = out.Repro
					rec.Test = ct
				}
				rec.Count++
				r.Issues[is.BugID] = rec
				continue
			}
			if _, dup := unknownSeen[is.ID()]; !dup {
				unknownSeen[is.ID()] = struct{}{}
				r.Unknown = append(r.Unknown, is)
			}
		}
		mIssuesFound.Set(int64(len(r.Issues)))
	}
	r.CoverSegments = segs.Len()
	mCoverSegments.Set(int64(r.CoverSegments))
	return yields
}

// Run executes the full pipeline. With Options.StateDir set, every stage
// memoizes through the content-addressed artifact store rooted there: a
// re-run with equivalent options resumes at the first stage whose inputs
// changed, and a fully cached run returns the stored report verbatim.
func Run(opts Options) (*Report, error) {
	p, err := OpenPipeline(opts)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	r := p.NewReport()
	p.BuildCorpus(r)
	if err := p.ProfileAll(r); err != nil {
		return nil, err
	}
	p.IdentifyPMCs(r)
	cd, pd := p.stage4Inputs("execute")
	key := p.reportKey(cd, pd, opts.TestBudget)
	if cached, out, ok := loadMemo(p, "execute", key, reportCodec, nil); p.countStage(ok) {
		// Findings, timings, frozen metrics and all, verbatim.
		obs.Diag.Printf("stage execute: cache hit (report %s, %d issues)", out.Short(), len(cached.Issues))
		obs.EmitTrace(p.trace, obs.EvCampaignDone, obs.A("cache", true), obs.A("issues", len(cached.Issues)))
		obs.RecordSample()
		return cached, nil
	}
	if opts.Feedback {
		p.RunFeedback(r, opts.TestBudget)
	} else {
		tests := p.GenerateTests(r, opts.TestBudget)
		p.ExecuteTests(r, tests)
	}
	p.TriageReport(r)
	r.CaptureMetrics()
	if d := saveMemo(p, "execute", key, reportCodec, r, nil); !d.IsZero() {
		obs.Diag.Printf("stage execute: report artifact %s persisted", d.Short())
	}
	obs.EmitTrace(p.trace, obs.EvCampaignDone, obs.A("cache", false), obs.A("issues", len(r.Issues)))
	obs.RecordSample()
	return r, nil
}

// NewReport allocates an empty report bound to the pipeline's method.
func (p *Pipeline) NewReport() *Report {
	return &Report{
		Method:  p.Opts.Method.Name,
		Version: p.Opts.Version,
		Workers: p.workers(),
		Issues:  make(map[int]IssueRecord),
	}
}
