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
	"snowboard/internal/queue"
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
	// concurrent tests seeded (PushTests), so repeated stage calls keep
	// drawing fresh — but deterministic — seeds, like the old shared rng did.
	genCalls     int
	exploreUnits int

	// segs accumulates interleaving-segment coverage across every
	// ExecuteTests call of this pipeline. Per-test outcomes are folded in
	// test order, so its contents are worker-invariant. RunFeedback
	// replaces it when resuming round state.
	segs *cover.Segments

	// plan indexes the PMC set's clusters under the method's strategy,
	// built from the first clustering GenerateTests or RunFeedback
	// computes: each batch derives from it which PMCs incidental adoption
	// may pick (adoptable).
	plan *cluster.Index

	// q and execs run every stage-4 batch (runBatch); camp, when set, is
	// the campaign the pipeline runs for (Campaign.execute). err is the
	// first error a batch met: no batch runs after it, and runStages
	// returns it.
	q     *queue.Queue
	execs []*Worker
	camp  *Campaign
	err   error

	// folding is the fold in progress of the batch PushTests pushed last
	// (FoldSettled), finished by FoldResults.
	folding *batchFold

	// store, when attached with UseStore, memoizes stages through the
	// content-addressed artifact store; corpusDigest is the content address
	// of the current corpus (zero = not yet computed).
	store        *store.Store
	corpusDigest store.Digest

	// trace is the campaign this pipeline's own events (stage.done,
	// campaign.done, feedback.round, triage.minimized) and its jobs' are
	// stitched to: the process default
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

// Close closes the pipeline's Workers, queue and environments: a pipeline
// that has run guests and is dropped unclosed leaks their parked vCPU
// coroutines and its queue's lease reaper. Its artifacts stay readable.
// Idempotent.
func (p *Pipeline) Close() {
	for _, w := range p.execs {
		w.Close()
	}
	if p.q != nil {
		p.q.Close()
	}
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
// one is reported, as serially. It always computes and stores nothing:
// profiling a corpus takes less time than reading a stored profile set back.
func (p *Pipeline) ProfileAll(r *Report) error {
	span := obs.StartSpan("stage.profile")
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
	p.stageDone("profile", false, r.ProfileTime, obs.A("accesses", r.ProfiledAccesses))
	return nil
}

// SetProfiles installs externally computed profiles. They must be the
// profiles of the pipeline's corpus: stage-4 memo keys name the PMC set by
// the corpus it derives from, not by its content.
func (p *Pipeline) SetProfiles(profiles []pmc.Profile) {
	p.Profiles = profiles
}

// IdentifyPMCs runs Algorithm 1 over the profiles (stage 2) as one batch.
// Like ProfileAll it always computes and stores nothing.
func (p *Pipeline) IdentifyPMCs(r *Report) {
	span := obs.StartSpan("stage.identify")
	p.PMCs = pmc.Identify(p.Profiles, p.Opts.PMC)
	r.DistinctPMCs = p.PMCs.Len()
	r.PMCCombinations = p.PMCs.TotalCombinations
	r.IdentifyTime = span.End()
	p.stageDone("identify", false, r.IdentifyTime, obs.A("pmcs", r.DistinctPMCs))
}

// SetPMCs installs an externally identified PMC set. It must be the set
// Opts.PMC identifies from the pipeline's corpus: stage-4 memo keys name
// the PMC set by how it is derived (reportKey), not by its content.
func (p *Pipeline) SetPMCs(s *pmc.Set) {
	p.PMCs = s
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
		p.indexClusters(cs)
		cluster.OrderClusters(cs, p.Opts.Method.Order, rng)
		r.ExemplarPMCs = len(cs)
		for i := range cs {
			if len(out) >= budget {
				break
			}
			if ct, ok := p.drawTest(cs, i, rng); ok {
				out = append(out, ct)
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

// ExecuteTests explores each concurrent test (stage 4) as one batch
// through the pipeline's queue (runBatch), as a campaign does: findings
// fold into the report in test order as results settle, byte-for-byte the
// serial fold at any worker count, because each test's outcome is a pure
// function of its job. After a batch has failed it runs nothing
// (Pipeline.err). DESIGN.md row 73 has what the queue costs a local run.
func (p *Pipeline) ExecuteTests(r *Report, tests []sched.ConcurrentTest) {
	span := obs.StartSpan("stage.exec")
	if p.err == nil {
		p.err = p.runBatch(r, tests)
	}
	d := span.End()
	r.ExecTime += d
	p.stageDone("exec", false, d, obs.A("issues", len(r.Issues)), obs.A("segments", r.CoverSegments))
}

// adoptable is what incidental adoption (Algorithm 2 lines 26–27) may pick
// from while tests run as one batch, in canonical order: the known PMCs
// less those whose clusters under the method's strategy have a test in the
// batch — adopting one would re-explore a cluster the batch already tests,
// while adopting one the budget never reaches is the only way to get
// there. At full coverage nothing is left, so the batch's jobs name no
// list, the explorer gets no set and neither the lookup nor the adopted
// PMCs' preemption points run. Without a plan (a pairing baseline, or tests GenerateTests
// and RunFeedback did not draw) every PMC is adoptable. PushTests ships
// the list in every job of the batch.
func (p *Pipeline) adoptable(tests []sched.ConcurrentTest) []pmc.PMC {
	if p.PMCs == nil {
		return nil
	}
	if p.plan == nil || !p.plan.Indexes(p.PMCs, p.Opts.Method.Strategy) {
		return p.PMCs.PMCs()
	}
	var hints []pmc.PMC
	for _, ct := range tests {
		if ct.Hint != nil {
			hints = append(hints, *ct.Hint)
		}
		hints = append(hints, ct.Extra...)
	}
	return p.plan.Unplanned(hints)
}

// indexClusters keeps p.plan an index of cs, the PMC set's clusters under
// the method's strategy: one index per set, built out by the first batch
// adoptable plans.
func (p *Pipeline) indexClusters(cs []cluster.Cluster) {
	if p.plan == nil || !p.plan.Indexes(p.PMCs, p.Opts.Method.Strategy) {
		p.plan = cluster.NewIndex(p.PMCs, p.Opts.Method.Strategy, cs)
	}
}

// outcomeFold is the one place an Outcome turns into IssueRecords,
// Unknown, counters and coverage (batchFold feeds it each job's first
// result in job order), with its state over one batch, which may reach it
// in several chunks: the report's unknown issues so far, by key, and the
// batch's distinct alias pairs, so CoverPairs counts each pair once.
type outcomeFold struct {
	r       *Report
	segs    *cover.Segments
	pairs   *cover.Coverage
	unknown map[detect.IssueKey]struct{}
}

func (p *Pipeline) newOutcomeFold(r *Report) outcomeFold {
	f := outcomeFold{r: r, segs: p.segs, pairs: cover.New(), unknown: make(map[detect.IssueKey]struct{}, len(r.Unknown))}
	for _, u := range r.Unknown {
		f.unknown[u.Key()] = struct{}{}
	}
	return f
}

// add folds one test's outcome; the report keeps what it needs of it by
// copy, but for the Repro state.
func (f *outcomeFold) add(ct sched.ConcurrentTest, out *sched.Outcome) {
	r := f.r
	f.segs.AddCounts(out.Segments)
	f.pairs.AddPairs(out.Pairs)
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
	for j, is := range out.Issues {
		if is.BugID != 0 {
			rec, seen := r.Issues[is.BugID]
			if !seen {
				rec = IssueRecord{
					Issue:     is,
					TestIndex: r.TestedTests,
					Trial:     out.IssueTrials[j],
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
		if _, dup := f.unknown[is.Key()]; !dup {
			f.unknown[is.Key()] = struct{}{}
			r.Unknown = append(r.Unknown, is)
		}
	}
	mIssuesFound.Set(int64(len(r.Issues)))
}

// done closes the batch: CoverPairs grows by its distinct alias pairs and
// CoverSegments is the pipeline-cumulative segment count.
func (f *outcomeFold) done() {
	f.r.CoverPairs += f.pairs.Len()
	mCoverPairs.Set(int64(f.r.CoverPairs))
	f.r.CoverSegments = f.segs.Len()
	mCoverSegments.Set(int64(f.r.CoverSegments))
}

// Run executes the full pipeline. With Options.StateDir set, stages 1 and
// 4 memoize through the content-addressed artifact store rooted there: a
// re-run with equivalent options takes the corpus from the store, and a
// fully cached run returns the stored report verbatim without profiling or
// identifying.
func Run(opts Options) (*Report, error) {
	p, err := OpenPipeline(opts)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	r := p.NewReport()
	p.BuildCorpus(r)
	key := p.reportKey(p.stage4Corpus("execute"), opts.TestBudget)
	if cached, out, ok := loadMemo(p, "execute", key, reportCodec, nil); p.countStage(ok) {
		// Findings, timings, frozen metrics and all, verbatim.
		obs.Diag.Printf("stage execute: cache hit (report %s, %d issues)", out.Short(), len(cached.Issues))
		obs.EmitTrace(p.trace, obs.EvCampaignDone, obs.A("cache", true), obs.A("issues", len(cached.Issues)))
		obs.RecordSample()
		return cached, nil
	}
	if err := p.runStages(r, func() {}); err != nil {
		return nil, err
	}
	r.CaptureMetrics()
	if d := saveMemo(p, "execute", key, reportCodec, r, nil); !d.IsZero() {
		obs.Diag.Printf("stage execute: report artifact %s persisted", d.Short())
	}
	obs.EmitTrace(p.trace, obs.EvCampaignDone, obs.A("cache", false), obs.A("issues", len(r.Issues)))
	obs.RecordSample()
	return r, nil
}

// runStages is stages 2–4 and triage over the built corpus, the one stage
// sequence of Run and Campaign.execute: profile, identify, then one batch
// of generated tests or the feedback loop's rounds of them, and triage once
// after the last batch. between runs before each stage (a campaign's pause
// gate). It returns the first error a stage or a batch met.
func (p *Pipeline) runStages(r *Report, between func()) error {
	between()
	if err := p.ProfileAll(r); err != nil {
		return err
	}
	between()
	p.IdentifyPMCs(r)
	between()
	if p.Opts.Feedback {
		p.RunFeedback(r, p.Opts.TestBudget)
	} else {
		p.ExecuteTests(r, p.GenerateTests(r, p.Opts.TestBudget))
	}
	if p.err != nil {
		return p.err
	}
	p.TriageReport(r)
	return nil
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
