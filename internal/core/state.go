package core

import (
	"encoding/json"
	"errors"
	"fmt"

	"snowboard/internal/corpus"
	"snowboard/internal/detect"
	"snowboard/internal/obs"
	"snowboard/internal/pmc"
	"snowboard/internal/store"
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
// saves nothing, so no stage forks on whether one is attached. The corpus
// and report stages, feedback round checkpoints, triage bundles and the
// campaign report all go through that pair. Metrics are not among them:
// they describe the live process, and nothing about them is persisted or
// restored.
//
// What is deliberately NOT in any key: Options.Workers (a pure performance
// knob; reports are bit-identical at any worker count) and Options.StateDir
// itself. What is: seed, fuzz budget, corpus cap, kernel version, PMC
// options, generation method, test budget, trials, and detector options —
// changing any of those must invalidate exactly the stages it feeds.
//
// A state dir keeps only what is dearer to recompute than to read. Stages
// 2–3 (profiling and PMC identification) are not: profiling a corpus takes
// less time than reading its stored profile set back, and identification
// runs only where stage 4 is about to spend far more. They always compute
// and store nothing, and a stage-4 key names the PMC set by how it is
// derived — the corpus digest, the kernel version and pmcPart — the way
// fuzzKey names the corpus by its inputs. A fully memoized run is two memo
// hits, fuzz and execute. A key over a corpus that has no content digest
// (no store, or persisting it failed) is the zero key, which never hits
// and files no memo entry.

// Stage-cache metrics.
var (
	mStoreHits   = obs.C(obs.MStoreHits)
	mStoreMisses = obs.C(obs.MStoreMisses)
)

// UseStore attaches an artifact store; subsequent stage runs memoize
// through it. Attach before running any stage.
func (p *Pipeline) UseStore(s *store.Store) { p.store = s }

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

// detectPart is the detector-suite part of every stage-4 key. The fourth
// slot was the race-analysis mode; happens-before is the only one left and
// the slot stays 0 so state dirs written by earlier binaries still hit.
func detectPart(d detect.Options) string {
	return fmt.Sprintf("detect=%t/%t/%t/0", d.Console, d.Races, d.TornReads)
}

// pmcPart names the PMC set in every stage-4 key by the options that, with
// the corpus and kernel version the key also pins, derive it. No key sees
// the set's content, so a change to what profiling or identification
// computes must rename this part, as a change to adoption renames
// adoptionPart, or state dirs serve reports built on the old PMC sets.
func pmcPart(o pmc.Options) string {
	return fmt.Sprintf("pmc=%t/%t", o.AllowSelfPairs, o.SkipValueFilter)
}

// adoptionPart names the incidental-adoption rule in every stage-4 key. It
// was "no-incidental=false" while adoption could pick any known PMC; now it
// skips the PMCs whose clusters the same batch tests (Pipeline.adoptable),
// so reports stored under the old part are never served.
const adoptionPart = "incidental=unplanned-clusters"

// reportKey identifies the generate+execute output (the full report) for a
// given corpus and the PMC set the pipeline's options derive from it.
func (p *Pipeline) reportKey(corpusDigest store.Digest, budget int) store.Digest {
	if corpusDigest.IsZero() {
		return store.Digest{}
	}
	m := p.Opts.Method
	return store.Key(keyPrefix, "execute",
		"corpus="+corpusDigest.String(),
		pmcPart(p.Opts.PMC),
		fmt.Sprintf("version=%s", p.Opts.Version),
		fmt.Sprintf("seed=%d", p.Opts.Seed),
		fmt.Sprintf("method=%d/%s/%s/%d", m.Kind, m.Name, m.Strategy.Name, m.Order),
		fmt.Sprintf("budget=%d", budget),
		fmt.Sprintf("trials=%d", p.Opts.Trials),
		detectPart(p.Opts.Detect),
		adoptionPart,
		p.feedbackPart(),
	)
}

// loopPart names the feedback loop's mechanisms in every key of a feedback
// run: the execute memo's, each round checkpoint's and the campaign memo's.
// Reports and rounds stored while the loop also mutated schedules were
// keyed without it, those stored while it allocated rounds by segment
// yield under "loop=rounds+composing", and those whose CoverPairs added
// each round's distinct pairs (a round stored no pair set) under
// "loop=walk+composing", so none is ever served.
const loopPart = "loop=walk+composing/pairs=run"

// feedbackPart is the execute key's feedback part. A feedback run and a
// one-shot run spend the same budget through different schedulers, so
// their reports must never share a key: a one-shot run pins rounds=0
// whatever FeedbackRounds says, and a feedback run its resolved round count
// (FeedbackRounds 0 and the default 4 map to one key) and loopPart.
func (p *Pipeline) feedbackPart() string {
	if !p.Opts.Feedback {
		return "feedback=false/0"
	}
	return fmt.Sprintf("feedback=true/%d/%s", p.feedbackRounds(), loopPart)
}

// Per-stage report fragments persisted in the memo entry, so a cache hit
// restores exactly the counters and timings the producing run measured and
// warm reports stay deep-equal to cold ones.
type fuzzMeta struct {
	CorpusSize     int   `json:"corpus_size"`
	FuzzExecutions int   `json:"fuzz_executions"`
	FuzzTimeNs     int64 `json:"fuzz_time_ns"`
}

// codec is the stored form of one artifact kind: where the store files it,
// what diagnostics call it, and its canonical encoding.
type codec[T any] struct {
	kind   store.Kind
	noun   string
	encode func(T) ([]byte, error)
	decode func([]byte) (T, error)
}

// One codec per artifact kind the pipeline memoizes. An SBRB bundle travels
// as the bytes triage.Encode produced: TriageReport needs them anyway to
// put the bundle's digest in the report, with or without a store, so this
// codec only validates on the way back.
var (
	corpusCodec = codec[*corpus.Corpus]{store.KindCorpus, "corpus",
		func(c *corpus.Corpus) ([]byte, error) { return corpus.Append(nil, c), nil },
		corpus.Parse,
	}
	reportCodec = codec[*Report]{store.KindReport, "report",
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

// countStage accounts one of the two memoized stages (fuzz, execute) as a
// store hit or miss and returns hit. Round checkpoints, triage and
// campaign memos are not stages; a run without a store moves neither
// counter.
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

// stage4Corpus returns the content digest of the current corpus — what
// every stage-4 memo key pins — persisting the corpus first if it is not
// yet content-addressed (it was installed with SetCorpus rather than built
// by BuildCorpus). The digest stays zero without a store.
func (p *Pipeline) stage4Corpus(stage string) store.Digest {
	if p.corpusDigest.IsZero() {
		p.corpusDigest = saveMemo(p, stage, store.Digest{}, corpusCodec, p.Corpus, nil)
	}
	return p.corpusDigest
}
