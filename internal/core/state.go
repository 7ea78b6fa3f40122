package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"snowboard/internal/corpus"
	"snowboard/internal/obs"
	"snowboard/internal/pmc"
	"snowboard/internal/store"
	"snowboard/internal/trace"
)

// Stage-graph memoization over the content-addressed artifact store.
//
// Each pipeline stage is a pure, bit-identical function of (input
// artifacts, the Options fields that matter to it, seed) — the determinism
// contract internal/par established. So every stage declares a key: a
// digest over its name, codec versions, input artifact digests, and
// relevant option fields. Before running, the stage looks the key up in
// the store; on a hit it decodes the stored output artifact and restores
// its report fragment instead of executing. On a miss (or a corrupt
// artifact, which is diagnosed and treated as a miss) it runs, persists
// the output artifact and a memo entry, and the next invocation — in this
// process or any other — resumes from it.
//
// What is deliberately NOT in any key: Options.Workers (a pure performance
// knob; reports are bit-identical at any worker count) and Options.StateDir
// itself. What is: seed, fuzz budget, corpus cap, kernel version, PMC
// options, generation method, test budget, trials, and detector options —
// changing any of those must invalidate exactly the stages it feeds.
//
// The dependency chain is digest-linked, not flag-linked: the profile key
// includes the *content digest* of the corpus, so two different fuzz
// budgets that happen to select the same corpus share one profile artifact
// — exactly how the paper reused one 40-hour profile corpus across all
// eleven Table 3 generation strategies.

// Stage-cache metrics.
var (
	mStoreHits   = obs.C(obs.MStoreHits)
	mStoreMisses = obs.C(obs.MStoreMisses)
)

// UseStore attaches an artifact store; subsequent stage runs memoize
// through it. Attach before running any stage. A previously persisted
// campaign time-series for this (version, seed) is merged into the live
// series, so a killed-and-resumed campaign's coverage trajectory is one
// continuous curve.
func (p *Pipeline) UseStore(s *store.Store) {
	p.store = s
	p.loadSeries()
}

// ArtifactStore returns the attached store (nil when running in-memory).
func (p *Pipeline) ArtifactStore() *store.Store { return p.store }

// keyPrefix versions the whole key schema; bump to orphan every memo
// entry at once.
const keyPrefix = "snowboard-stage-v1"

// fuzzKey identifies the fuzzing campaign output.
func (p *Pipeline) fuzzKey() store.Digest {
	return store.Key(keyPrefix, "fuzz",
		fmt.Sprintf("corpus-codec=%d", corpus.CodecVersion),
		fmt.Sprintf("version=%s", p.Opts.Version),
		fmt.Sprintf("seed=%d", p.Opts.Seed),
		fmt.Sprintf("budget=%d", p.Opts.FuzzBudget),
		fmt.Sprintf("cap=%d", p.Opts.CorpusCap),
	)
}

// profileKey identifies the profiling output for a given corpus.
func (p *Pipeline) profileKey(corpusDigest store.Digest) store.Digest {
	return store.Key(keyPrefix, "profile",
		fmt.Sprintf("profiles-codec=%d", pmc.ProfilesCodecVersion),
		fmt.Sprintf("trace-codec=%d", trace.CodecVersion),
		fmt.Sprintf("version=%s", p.Opts.Version),
		"corpus="+corpusDigest.String(),
	)
}

// identifyKey identifies the Algorithm 1 output for a given profile set.
func (p *Pipeline) identifyKey(profilesDigest store.Digest) store.Digest {
	return store.Key(keyPrefix, "identify",
		fmt.Sprintf("set-codec=%d", pmc.SetCodecVersion),
		"profiles="+profilesDigest.String(),
		fmt.Sprintf("self-pairs=%t", p.Opts.PMC.AllowSelfPairs),
		fmt.Sprintf("skip-value-filter=%t", p.Opts.PMC.SkipValueFilter),
	)
}

// reportKey identifies the generate+execute output (the full report) for a
// given corpus and PMC set.
func (p *Pipeline) reportKey(corpusDigest, pmcDigest store.Digest, budget int) store.Digest {
	m := p.Opts.Method
	d := p.Opts.Detect
	return store.Key(keyPrefix, "execute",
		"corpus="+corpusDigest.String(),
		"pmcs="+pmcDigest.String(),
		fmt.Sprintf("version=%s", p.Opts.Version),
		fmt.Sprintf("seed=%d", p.Opts.Seed),
		fmt.Sprintf("method=%d/%s/%s/%d", m.Kind, m.Name, m.Strategy.Name, m.Order),
		fmt.Sprintf("budget=%d", budget),
		fmt.Sprintf("trials=%d", p.Opts.Trials),
		fmt.Sprintf("detect=%t/%t/%t/%d", d.Console, d.Races, d.TornReads, d.RaceMode),
		fmt.Sprintf("no-incidental=%t", p.Opts.DisableIncidental),
		// Resolved feedback parameters: a feedback run and a one-shot run
		// spend the same budget through different schedulers, so their
		// reports must never share a key. Non-feedback runs pin rounds=0
		// regardless of FeedbackRounds.
		fmt.Sprintf("feedback=%t/%d", p.Opts.Feedback, p.resolvedFeedbackRounds()),
	)
}

// resolvedFeedbackRounds is the round count that actually shapes the run:
// 0 when feedback is off, the resolved default otherwise — so
// FeedbackRounds 0 and 4 (the default) map to one artifact key.
func (p *Pipeline) resolvedFeedbackRounds() int {
	if !p.Opts.Feedback {
		return 0
	}
	return p.feedbackRounds()
}

// seriesKey identifies the campaign time-series artifact. Deliberately
// independent of method, workers, and budgets: one (version, seed) campaign
// has one coverage trajectory, however many strategy comparisons or resumed
// runs share the state directory.
func (p *Pipeline) seriesKey() store.Digest {
	return store.Key(keyPrefix, "timeseries",
		fmt.Sprintf("series-codec=%d", obs.SeriesCodecVersion),
		fmt.Sprintf("version=%s", p.Opts.Version),
		fmt.Sprintf("seed=%d", p.Opts.Seed),
	)
}

// loadSeries merges a prior run's persisted SBTS artifact into the live
// DefaultSeries. Merge dedups by timestamp, so repeated loads — the compare
// mode attaches eleven pipelines to one store — are idempotent.
func (p *Pipeline) loadSeries() {
	payload, _, out, ok := p.loadStage("timeseries", p.seriesKey(), store.KindSeries)
	if !ok {
		return
	}
	samples, err := obs.DecodeSeries(bytes.NewReader(payload))
	if err != nil {
		obs.Diag.Printf("stage timeseries: discarding undecodable series artifact %s: %v", out.Short(), err)
		return
	}
	obs.DefaultSeries.Merge(samples)
	if len(samples) > 0 {
		// Continue the counters where the prior run stopped: cache-hit
		// stages do no new work, so without this every resumed sample
		// would regress the trajectory to zero.
		obs.RestoreCounters(samples[len(samples)-1])
	}
	obs.Diag.Printf("stage timeseries: resumed %d samples (%s)", len(samples), out.Short())
}

// saveSeries snapshots the live metrics into the campaign time-series and
// persists it. Pipeline stages call this at their boundaries, so a killed
// campaign loses at most one stage's trajectory.
func (p *Pipeline) saveSeries() {
	obs.RecordSample()
	if p.store == nil {
		return
	}
	var buf bytes.Buffer
	if err := obs.EncodeSeries(&buf, obs.DefaultSeries.Samples()); err != nil {
		obs.Diag.Printf("stage timeseries: encode series: %v", err)
		return
	}
	p.saveStage("timeseries", p.seriesKey(), store.KindSeries, buf.Bytes(), nil)
}

// Per-stage report fragments persisted in the memo entry, so a cache hit
// restores exactly the counters and timings the producing run measured and
// warm reports stay deep-equal to cold ones.
type fuzzMeta struct {
	CorpusSize     int   `json:"corpus_size"`
	FuzzExecutions int   `json:"fuzz_executions"`
	FuzzTimeNs     int64 `json:"fuzz_time_ns"`
}

type profileMeta struct {
	ProfiledAccesses int   `json:"profiled_accesses"`
	ProfileTimeNs    int64 `json:"profile_time_ns"`
}

type identifyMeta struct {
	DistinctPMCs    int   `json:"distinct_pmcs"`
	PMCCombinations int64 `json:"pmc_combinations"`
	IdentifyTimeNs  int64 `json:"identify_time_ns"`
}

// loadStage resolves one stage memo entry and its output artifact payload.
// Any failure below a clean miss — corrupt memo, missing artifact, corrupt
// artifact — is diagnosed on stderr and reported as a miss so the caller
// transparently re-runs the stage.
func (p *Pipeline) loadStage(name string, key store.Digest, kind store.Kind) (payload []byte, meta json.RawMessage, out store.Digest, ok bool) {
	res, err := p.store.GetStage(key)
	if err != nil {
		if !errors.Is(err, store.ErrNotFound) {
			obs.Diag.Printf("stage %s: discarding unreadable memo entry: %v", name, err)
		}
		return nil, nil, store.Digest{}, false
	}
	payload, err = p.store.Get(kind, res.Out)
	if err != nil {
		obs.Diag.Printf("stage %s: discarding artifact %s: %v", name, res.Out.Short(), err)
		return nil, nil, store.Digest{}, false
	}
	return payload, res.Meta, res.Out, true
}

// saveStage persists one stage's output artifact and memo entry. Store
// failures (disk full, permissions) degrade to a warning: the run's
// results are unaffected, only resumability is lost.
func (p *Pipeline) saveStage(name string, key store.Digest, kind store.Kind, payload []byte, meta any) store.Digest {
	d, err := p.store.Put(kind, payload)
	if err != nil {
		obs.Diag.Printf("stage %s: persist artifact: %v", name, err)
		return store.Digest{}
	}
	var rawMeta json.RawMessage
	if meta != nil {
		rawMeta, err = json.Marshal(meta)
		if err != nil {
			obs.Diag.Printf("stage %s: persist meta: %v", name, err)
			return d
		}
	}
	if err := p.store.PutStage(key, store.StageResult{Kind: kind, Out: d, Meta: rawMeta}); err != nil {
		obs.Diag.Printf("stage %s: persist memo: %v", name, err)
	}
	return d
}

// loadCorpusStage attempts a fuzz-stage cache hit.
func (p *Pipeline) loadCorpusStage(r *Report) bool {
	payload, rawMeta, out, ok := p.loadStage("fuzz", p.fuzzKey(), store.KindCorpus)
	if !ok {
		return false
	}
	c, err := corpus.DecodeCorpus(bytes.NewReader(payload))
	if err != nil {
		obs.Diag.Printf("stage fuzz: discarding undecodable corpus artifact %s: %v", out.Short(), err)
		return false
	}
	var meta fuzzMeta
	if err := json.Unmarshal(rawMeta, &meta); err != nil {
		obs.Diag.Printf("stage fuzz: discarding memo with bad meta: %v", err)
		return false
	}
	p.Corpus = c
	p.corpusDigest = out
	r.CorpusSize = meta.CorpusSize
	r.FuzzExecutions = meta.FuzzExecutions
	r.FuzzTime = time.Duration(meta.FuzzTimeNs)
	obs.Diag.Printf("stage fuzz: cache hit (corpus %s, %d tests)", out.Short(), c.Len())
	return true
}

// saveCorpusStage persists the fuzz stage output.
func (p *Pipeline) saveCorpusStage(r *Report) {
	var buf bytes.Buffer
	if err := corpus.EncodeCorpus(&buf, p.Corpus); err != nil {
		obs.Diag.Printf("stage fuzz: encode corpus: %v", err)
		return
	}
	p.corpusDigest = p.saveStage("fuzz", p.fuzzKey(), store.KindCorpus, buf.Bytes(), fuzzMeta{
		CorpusSize:     r.CorpusSize,
		FuzzExecutions: r.FuzzExecutions,
		FuzzTimeNs:     int64(r.FuzzTime),
	})
}

// loadProfileStage attempts a profile-stage cache hit for corpusDigest.
func (p *Pipeline) loadProfileStage(r *Report, corpusDigest store.Digest) bool {
	payload, rawMeta, out, ok := p.loadStage("profile", p.profileKey(corpusDigest), store.KindProfiles)
	if !ok {
		return false
	}
	profiles, err := pmc.DecodeProfiles(bytes.NewReader(payload))
	if err != nil {
		obs.Diag.Printf("stage profile: discarding undecodable profile artifact %s: %v", out.Short(), err)
		return false
	}
	var meta profileMeta
	if err := json.Unmarshal(rawMeta, &meta); err != nil {
		obs.Diag.Printf("stage profile: discarding memo with bad meta: %v", err)
		return false
	}
	p.Profiles = profiles
	p.profilesDigest = out
	r.ProfiledAccesses += meta.ProfiledAccesses
	r.ProfileTime = time.Duration(meta.ProfileTimeNs)
	obs.Diag.Printf("stage profile: cache hit (profiles %s, %d tests)", out.Short(), len(profiles))
	return true
}

// saveProfileStage persists the profile stage output.
func (p *Pipeline) saveProfileStage(corpusDigest store.Digest, accesses int, dur time.Duration) {
	var buf bytes.Buffer
	if err := pmc.EncodeProfiles(&buf, p.Profiles); err != nil {
		obs.Diag.Printf("stage profile: encode profiles: %v", err)
		return
	}
	p.profilesDigest = p.saveStage("profile", p.profileKey(corpusDigest), store.KindProfiles, buf.Bytes(), profileMeta{
		ProfiledAccesses: accesses,
		ProfileTimeNs:    int64(dur),
	})
}

// loadIdentifyStage attempts an identify-stage cache hit for
// profilesDigest.
func (p *Pipeline) loadIdentifyStage(r *Report, profilesDigest store.Digest) bool {
	payload, rawMeta, out, ok := p.loadStage("identify", p.identifyKey(profilesDigest), store.KindPMCs)
	if !ok {
		return false
	}
	set, err := pmc.DecodeSet(bytes.NewReader(payload))
	if err != nil {
		obs.Diag.Printf("stage identify: discarding undecodable PMC artifact %s: %v", out.Short(), err)
		return false
	}
	var meta identifyMeta
	if err := json.Unmarshal(rawMeta, &meta); err != nil {
		obs.Diag.Printf("stage identify: discarding memo with bad meta: %v", err)
		return false
	}
	p.PMCs = set
	p.pmcDigest = out
	r.DistinctPMCs = meta.DistinctPMCs
	r.PMCCombinations = meta.PMCCombinations
	r.IdentifyTime = time.Duration(meta.IdentifyTimeNs)
	obs.Diag.Printf("stage identify: cache hit (pmcs %s, %d keys)", out.Short(), set.Len())
	return true
}

// saveIdentifyStage persists the identify stage output.
func (p *Pipeline) saveIdentifyStage(r *Report, profilesDigest store.Digest) {
	var buf bytes.Buffer
	if err := pmc.EncodeSet(&buf, p.PMCs); err != nil {
		obs.Diag.Printf("stage identify: encode PMC set: %v", err)
		return
	}
	p.pmcDigest = p.saveStage("identify", p.identifyKey(profilesDigest), store.KindPMCs, buf.Bytes(), identifyMeta{
		DistinctPMCs:    r.DistinctPMCs,
		PMCCombinations: r.PMCCombinations,
		IdentifyTimeNs:  int64(r.IdentifyTime),
	})
}

// Incremental identification memo chain. The monolithic identify memo
// (identifyKey → SBPM set) answers "has this exact profile set been
// identified before"; the chain answers the more useful resumed-campaign
// question "how large a *prefix* of it has". Profiles split into fixed
// identifyBatchSize batches and each full batch b gets a chain key
//
//	d_b = Key("identify-chain", codecs, PMC options, prev=d_{b-1}, batch=digest(batch b))
//
// — digest-linked like the corpus→profile→PMC chain, so a key pins the
// entire batch prefix behind it, not just its own contents. One SBPI
// snapshot (pmc.EncodeIncremental) is persisted per run under the key of
// the last full batch; a resumed campaign with a longer profile set probes
// its chain keys longest-prefix-first, loads the snapshot, and identifies
// only the delta batches. Deterministic campaigns grow their corpus as a
// prefix of any larger-budget run of the same seed, so the chains align
// exactly where the work is shared.
//
// identifyBatchSize is fixed — never derived from worker count or corpus
// size — because the batch boundaries are part of the chain keys: two runs
// must slice identically to share snapshots.
const identifyBatchSize = 16

// identifyChainKeys returns the chain key of every full identifyBatchSize
// batch of the current profiles (nil on encoding failure, and with no
// store attached: nothing to resume from or persist to).
func (p *Pipeline) identifyChainKeys() []store.Digest {
	if p.store == nil {
		return nil
	}
	full := len(p.Profiles) / identifyBatchSize
	keys := make([]store.Digest, 0, full)
	prev := store.Digest{}
	for b := 0; b < full; b++ {
		var buf bytes.Buffer
		if err := pmc.EncodeProfiles(&buf, p.Profiles[b*identifyBatchSize:(b+1)*identifyBatchSize]); err != nil {
			obs.Diag.Printf("stage identify: encode chain batch %d: %v", b, err)
			return nil
		}
		prev = store.Key(keyPrefix, "identify-chain",
			fmt.Sprintf("incr-codec=%d", pmc.IncrementalCodecVersion),
			fmt.Sprintf("set-codec=%d", pmc.SetCodecVersion),
			fmt.Sprintf("profiles-codec=%d", pmc.ProfilesCodecVersion),
			fmt.Sprintf("batch-size=%d", identifyBatchSize),
			fmt.Sprintf("self-pairs=%t", p.Opts.PMC.AllowSelfPairs),
			fmt.Sprintf("skip-value-filter=%t", p.Opts.PMC.SkipValueFilter),
			"prev="+prev.String(),
			"batch="+store.Sum(buf.Bytes()).String(),
		)
		keys = append(keys, prev)
	}
	return keys
}

// loadIncrementalStage probes the chain keys longest-prefix-first for a
// stored SBPI snapshot and returns a resumable incremental identifier plus
// the number of batches it already covers (a fresh identifier and 0 when
// nothing usable is stored). Probes are not stage cache hits or misses —
// the identify stage as a whole accounts those — so this bumps neither
// counter.
func (p *Pipeline) loadIncrementalStage(keys []store.Digest) (*pmc.Incremental, int) {
	for b := len(keys) - 1; b >= 0; b-- {
		payload, _, out, ok := p.loadStage("identify-chain", keys[b], store.KindPMCIndex)
		if !ok {
			continue
		}
		inc, err := pmc.DecodeIncremental(bytes.NewReader(payload), p.Opts.PMC)
		if err != nil {
			obs.Diag.Printf("stage identify: discarding undecodable SBPI artifact %s: %v", out.Short(), err)
			continue
		}
		if inc.Profiles() != (b+1)*identifyBatchSize {
			obs.Diag.Printf("stage identify: discarding SBPI artifact %s: covers %d profiles, chain key expects %d",
				out.Short(), inc.Profiles(), (b+1)*identifyBatchSize)
			continue
		}
		obs.Diag.Printf("stage identify: SBPI index loaded (%s, %d batches, %d profiles, %d PMCs)",
			out.Short(), inc.Batches(), inc.Profiles(), inc.Set().Len())
		return inc, b + 1
	}
	return pmc.NewIncremental(p.Opts.PMC), 0
}

// saveIncrementalStage persists the SBPI snapshot under the chain key of
// the last full batch it covers.
func (p *Pipeline) saveIncrementalStage(key store.Digest, inc *pmc.Incremental) {
	var buf bytes.Buffer
	if err := pmc.EncodeIncremental(&buf, inc); err != nil {
		obs.Diag.Printf("stage identify: encode SBPI snapshot: %v", err)
		return
	}
	p.saveStage("identify-chain", key, store.KindPMCIndex, buf.Bytes(), nil)
}

// identifyIncremental runs Algorithm 1 as a chain of profile-batch deltas:
// resume from the longest stored snapshot prefix, identify only the
// remaining batches, persist a snapshot covering the full batches, then
// fold in the sub-batch tail. The result is deep-equal to
// pmc.IdentifyParallel over the whole profile set — Set merges are order-
// independent, so partitioning into batches cannot change the outcome.
func (p *Pipeline) identifyIncremental() *pmc.Set {
	keys := p.identifyChainKeys()
	inc, resume := p.loadIncrementalStage(keys)
	start := resume * identifyBatchSize
	workers := p.workers()
	for b := resume; b < len(keys); b++ {
		inc.AddBatchParallel(p.Profiles[b*identifyBatchSize:(b+1)*identifyBatchSize], workers)
	}
	if resume < len(keys) {
		p.saveIncrementalStage(keys[len(keys)-1], inc)
	}
	if tail := p.Profiles[len(keys)*identifyBatchSize:]; len(tail) > 0 {
		inc.AddBatchParallel(tail, workers)
	}
	set := inc.Set()
	obs.Diag.Printf("stage identify: delta identification: %d/%d profiles identified incrementally (%d resumed from snapshot)",
		len(p.Profiles)-start, len(p.Profiles), start)
	obs.G(obs.MPMCIdentified).Set(int64(set.Len()))
	obs.G(obs.MPMCCombinations).Set(set.TotalCombinations)
	obs.Emit(obs.EvPMCIdentified, obs.A("keys", set.Len()),
		obs.A("combinations", set.TotalCombinations))
	return set
}

// ensureDigest returns *d, the content digest of one of the pipeline's
// current artifacts, encoding and persisting the artifact first if it is
// not yet content-addressed (e.g. it was installed with SetCorpus rather
// than built by BuildCorpus).
func (p *Pipeline) ensureDigest(d *store.Digest, kind store.Kind, encode func(*bytes.Buffer) error) (store.Digest, error) {
	if d.IsZero() {
		var buf bytes.Buffer
		if err := encode(&buf); err != nil {
			return store.Digest{}, err
		}
		put, err := p.store.Put(kind, buf.Bytes())
		if err != nil {
			return store.Digest{}, err
		}
		*d = put
	}
	return *d, nil
}

func (p *Pipeline) ensureCorpusDigest() (store.Digest, error) {
	if p.Corpus == nil {
		return store.Digest{}, errors.New("core: no corpus")
	}
	return p.ensureDigest(&p.corpusDigest, store.KindCorpus,
		func(b *bytes.Buffer) error { return corpus.EncodeCorpus(b, p.Corpus) })
}

func (p *Pipeline) ensureProfilesDigest() (store.Digest, error) {
	return p.ensureDigest(&p.profilesDigest, store.KindProfiles,
		func(b *bytes.Buffer) error { return pmc.EncodeProfiles(b, p.Profiles) })
}

func (p *Pipeline) ensurePMCDigest() (store.Digest, error) {
	if p.PMCs == nil {
		return store.Digest{}, errors.New("core: no PMC set")
	}
	return p.ensureDigest(&p.pmcDigest, store.KindPMCs,
		func(b *bytes.Buffer) error { return pmc.EncodeSet(b, p.PMCs) })
}

// loadReportMemo decodes the report memoized under key — findings,
// timings, frozen metrics and all, verbatim. It is the one report codec:
// the pipeline's execute stage and the campaign-level memo both store a
// JSON Report under KindReport plus a stage memo entry.
func (p *Pipeline) loadReportMemo(name string, key store.Digest) (*Report, bool) {
	payload, _, out, ok := p.loadStage(name, key, store.KindReport)
	if !ok {
		return nil, false
	}
	var r Report
	if err := json.Unmarshal(payload, &r); err != nil {
		obs.Diag.Printf("stage %s: discarding undecodable report artifact %s: %v", name, out.Short(), err)
		return nil, false
	}
	if r.Issues == nil {
		r.Issues = make(map[int]IssueRecord)
	}
	obs.Diag.Printf("stage %s: cache hit (report %s, %d issues)", name, out.Short(), len(r.Issues))
	return &r, true
}

// saveReportMemo persists the finished report under key.
func (p *Pipeline) saveReportMemo(name string, key store.Digest, r *Report) {
	payload, err := json.Marshal(r)
	if err != nil {
		obs.Diag.Printf("stage %s: encode report: %v", name, err)
		return
	}
	if d := p.saveStage(name, key, store.KindReport, payload, nil); !d.IsZero() {
		obs.Diag.Printf("stage %s: report artifact %s persisted", name, d.Short())
	}
}

// stage4Inputs returns the content digests of the current corpus and PMC
// set — what every stage-4 memo key pins — persisting either artifact if
// it is not yet content-addressed. A failure is diagnosed under stage.
func (p *Pipeline) stage4Inputs(stage string) (cd, pd store.Digest, ok bool) {
	cd, err := p.ensureCorpusDigest()
	if err == nil {
		pd, err = p.ensurePMCDigest()
	}
	if err != nil {
		obs.Diag.Printf("stage %s: artifact digests: %v", stage, err)
	}
	return cd, pd, err == nil
}

// loadReportStage attempts a full generate+execute cache hit.
func (p *Pipeline) loadReportStage(budget int) (*Report, bool) {
	cd, pd, ok := p.stage4Inputs("execute")
	if !ok {
		return nil, false
	}
	return p.loadReportMemo("execute", p.reportKey(cd, pd, budget))
}

// saveReportStage persists the finished report.
func (p *Pipeline) saveReportStage(r *Report, budget int) {
	if cd, pd, ok := p.stage4Inputs("execute"); ok {
		p.saveReportMemo("execute", p.reportKey(cd, pd, budget), r)
	}
}

// ArtifactDigests reports the content digests of the pipeline's current
// artifacts as hex strings (empty when unknown/not yet computed), for
// composing tools: sbprofile prints them, sbexec resolves queue jobs
// against them.
func (p *Pipeline) ArtifactDigests() (corpusD, profilesD, pmcsD string) {
	render := func(d store.Digest) string {
		if d.IsZero() {
			return ""
		}
		return d.String()
	}
	return render(p.corpusDigest), render(p.profilesDigest), render(p.pmcDigest)
}
