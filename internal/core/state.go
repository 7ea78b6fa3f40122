package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"snowboard/internal/corpus"
	"snowboard/internal/detect"
	"snowboard/internal/obs"
	"snowboard/internal/pmc"
	"snowboard/internal/store"
	"snowboard/internal/trace"
	"snowboard/internal/triage"
)

// Stage-graph memoization over the content-addressed artifact store.
//
// Each pipeline stage is a pure, bit-identical function of (input
// artifacts, the Options fields that matter to it, seed) — the determinism
// contract internal/par established — so a memo hit and a recomputation
// are indistinguishable. There is one memo, and this file is the only
// place that talks to the store's stage index: a stage names a key (a
// digest over its name, codec versions, input artifact digests, and
// relevant option fields), the codec of the artifact kind it produces, and
// its report fragment, and calls loadMemo before computing and saveMemo
// after. loadMemo owns the lookup, the decode, every corrupt-entry
// diagnostic (each is treated as a miss, so the stage transparently
// re-runs) and the fragment's restore; saveMemo owns the encode and the
// persist; both own the rule that a pipeline without a store misses and
// saves nothing, so no stage forks on whether one is attached. The corpus,
// profile, PMC-set and report stages, feedback round checkpoints, triage
// bundles, the campaign report and the time-series all go through that
// pair.
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
// eleven Table 3 generation strategies. A key derived from an input that
// has no content digest (no store, or persisting it failed) is the zero
// key, which never hits and files no memo entry.

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
	if corpusDigest.IsZero() {
		return store.Digest{}
	}
	return store.Key(keyPrefix, "profile",
		fmt.Sprintf("profiles-codec=%d", pmc.ProfilesCodecVersion),
		fmt.Sprintf("trace-codec=%d", trace.CodecVersion),
		fmt.Sprintf("version=%s", p.Opts.Version),
		"corpus="+corpusDigest.String(),
	)
}

// identifyKey identifies the Algorithm 1 output for a given profile set.
func (p *Pipeline) identifyKey(profilesDigest store.Digest) store.Digest {
	if profilesDigest.IsZero() {
		return store.Digest{}
	}
	return store.Key(keyPrefix, "identify",
		fmt.Sprintf("set-codec=%d", pmc.SetCodecVersion),
		"profiles="+profilesDigest.String(),
		fmt.Sprintf("self-pairs=%t", p.Opts.PMC.AllowSelfPairs),
		fmt.Sprintf("skip-value-filter=%t", p.Opts.PMC.SkipValueFilter),
	)
}

// detectPart is the detector-suite part of every stage-4 key. The fourth
// slot was the race-analysis mode; happens-before is the only one left and
// the slot stays 0 so state dirs written by earlier binaries still hit.
func detectPart(d detect.Options) string {
	return fmt.Sprintf("detect=%t/%t/%t/0", d.Console, d.Races, d.TornReads)
}

// reportKey identifies the generate+execute output (the full report) for a
// given corpus and PMC set.
func (p *Pipeline) reportKey(corpusDigest, pmcDigest store.Digest, budget int) store.Digest {
	if corpusDigest.IsZero() || pmcDigest.IsZero() {
		return store.Digest{}
	}
	m := p.Opts.Method
	return store.Key(keyPrefix, "execute",
		"corpus="+corpusDigest.String(),
		"pmcs="+pmcDigest.String(),
		fmt.Sprintf("version=%s", p.Opts.Version),
		fmt.Sprintf("seed=%d", p.Opts.Seed),
		fmt.Sprintf("method=%d/%s/%s/%d", m.Kind, m.Name, m.Strategy.Name, m.Order),
		fmt.Sprintf("budget=%d", budget),
		fmt.Sprintf("trials=%d", p.Opts.Trials),
		detectPart(p.Opts.Detect),
		"no-incidental=false", // retired option; stored keys keep the part
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
	samples, out, ok := loadMemo(p, "timeseries", p.seriesKey(), seriesCodec, nil)
	if !ok {
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
	if p.store != nil { // or the series would be copied out for nothing
		saveMemo(p, "timeseries", p.seriesKey(), seriesCodec, obs.DefaultSeries.Samples(), nil)
	}
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

// codec is the stored form of one artifact kind: where the store files it,
// what diagnostics call it, and its canonical encoding.
type codec[T any] struct {
	kind   store.Kind
	noun   string
	encode func(T) ([]byte, error)
	decode func([]byte) (T, error)
}

// binaryCodec adapts a Writer/Reader pair of one of the SB** binary formats.
func binaryCodec[T any](kind store.Kind, noun string, enc func(io.Writer, T) error, dec func(io.Reader) (T, error)) codec[T] {
	return codec[T]{kind, noun,
		func(v T) ([]byte, error) {
			var buf bytes.Buffer
			err := enc(&buf, v)
			return buf.Bytes(), err
		},
		func(b []byte) (T, error) { return dec(bytes.NewReader(b)) },
	}
}

// One codec per artifact kind the pipeline memoizes. An SBRB bundle travels
// as the bytes triage.Encode produced: TriageReport needs them anyway to
// put the bundle's digest in the report, with or without a store, so this
// codec only validates on the way back.
var (
	corpusCodec   = binaryCodec(store.KindCorpus, "corpus", corpus.EncodeCorpus, corpus.DecodeCorpus)
	profilesCodec = binaryCodec(store.KindProfiles, "profile", pmc.EncodeProfiles, pmc.DecodeProfiles)
	pmcSetCodec   = binaryCodec(store.KindPMCs, "PMC", pmc.EncodeSet, pmc.DecodeSet)
	seriesCodec   = binaryCodec(store.KindSeries, "series", obs.EncodeSeries, obs.DecodeSeries)
	reportCodec   = codec[*Report]{store.KindReport, "report",
		func(r *Report) ([]byte, error) { return json.Marshal(r) },
		func(b []byte) (*Report, error) {
			r := new(Report)
			err := json.Unmarshal(b, r)
			if r.Issues == nil {
				r.Issues = make(map[int]IssueRecord)
			}
			return r, err
		},
	}
	roundCodec = codec[*feedbackRoundState]{store.KindFeedback, "round",
		func(st *feedbackRoundState) ([]byte, error) { return json.Marshal(st) },
		func(b []byte) (*feedbackRoundState, error) {
			st := new(feedbackRoundState)
			return st, json.Unmarshal(b, st)
		},
	}
	bundleCodec = codec[[]byte]{store.KindRepro, "bundle",
		func(b []byte) ([]byte, error) { return b, nil },
		func(b []byte) ([]byte, error) {
			_, err := triage.Decode(b)
			return b, err
		},
	}
)

// loadMemo resolves key to the artifact memoized under it and, when meta
// is non-nil, unmarshals the memo entry's report fragment into it. With no
// store attached, or a zero key (an input that is not content-addressed),
// it is a miss. Any failure below a clean miss — corrupt memo, missing or
// corrupt artifact, bad meta — is diagnosed on stderr and reported as a
// miss, so the caller transparently re-runs the stage.
func loadMemo[T any](p *Pipeline, stage string, key store.Digest, c codec[T], meta any) (v T, out store.Digest, ok bool) {
	if p.store == nil || key.IsZero() {
		return v, out, false
	}
	res, err := p.store.GetStage(key)
	if err != nil {
		if !errors.Is(err, store.ErrNotFound) {
			obs.Diag.Printf("stage %s: discarding unreadable memo entry: %v", stage, err)
		}
		return v, out, false
	}
	payload, err := p.store.Get(c.kind, res.Out)
	if err != nil {
		obs.Diag.Printf("stage %s: discarding artifact %s: %v", stage, res.Out.Short(), err)
		return v, out, false
	}
	if v, err = c.decode(payload); err != nil {
		obs.Diag.Printf("stage %s: discarding undecodable %s artifact %s: %v", stage, c.noun, res.Out.Short(), err)
		return v, out, false
	}
	if meta != nil {
		if err := json.Unmarshal(res.Meta, meta); err != nil {
			obs.Diag.Printf("stage %s: discarding memo with bad meta: %v", stage, err)
			return v, out, false
		}
	}
	return v, res.Out, true
}

// saveMemo persists v as a content-addressed artifact plus, under a
// non-zero key, the memo entry (with meta, the stage's report fragment)
// that lets loadMemo find it; it returns the artifact's digest. With no
// store attached it does nothing and returns the zero digest. Store
// failures (disk full, permissions) degrade to a warning: the run's
// results are unaffected, only resumability is lost.
func saveMemo[T any](p *Pipeline, stage string, key store.Digest, c codec[T], v T, meta any) store.Digest {
	if p.store == nil {
		return store.Digest{}
	}
	payload, err := c.encode(v)
	if err != nil {
		obs.Diag.Printf("stage %s: encode %s: %v", stage, c.noun, err)
		return store.Digest{}
	}
	d, err := p.store.Put(c.kind, payload)
	if err != nil {
		obs.Diag.Printf("stage %s: persist artifact: %v", stage, err)
		return store.Digest{}
	}
	if key.IsZero() {
		return d
	}
	var rawMeta json.RawMessage
	if meta != nil {
		if rawMeta, err = json.Marshal(meta); err != nil {
			obs.Diag.Printf("stage %s: persist meta: %v", stage, err)
			return d
		}
	}
	if err := p.store.PutStage(key, store.StageResult{Kind: c.kind, Out: d, Meta: rawMeta}); err != nil {
		obs.Diag.Printf("stage %s: persist memo: %v", stage, err)
	}
	return d
}

// contentAddress returns *d, the digest of one of the pipeline's current
// artifacts, persisting the artifact first if it is not yet
// content-addressed (e.g. it was installed with SetCorpus rather than built
// by BuildCorpus). The digest stays zero without a store.
func contentAddress[T any](p *Pipeline, stage string, d *store.Digest, c codec[T], v T) store.Digest {
	if d.IsZero() {
		*d = saveMemo(p, stage, store.Digest{}, c, v, nil)
	}
	return *d
}

// countStage accounts one of the four memoized stages (fuzz, profile,
// identify, execute) as a store hit or miss and returns hit. Round
// checkpoints, triage and campaign memos are not stages; a run without a
// store moves neither counter.
func (p *Pipeline) countStage(hit bool) bool {
	if p.store != nil {
		if hit {
			mStoreHits.Inc()
		} else {
			mStoreMisses.Inc()
		}
	}
	return hit
}

// stage4Inputs returns the content digests of the current corpus and PMC
// set — what every stage-4 memo key pins — persisting either artifact if
// it is not yet content-addressed.
func (p *Pipeline) stage4Inputs(stage string) (cd, pd store.Digest) {
	cd = contentAddress(p, stage, &p.corpusDigest, corpusCodec, p.Corpus)
	pd = contentAddress(p, stage, &p.pmcDigest, pmcSetCodec, p.PMCs)
	return cd, pd
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
