package core

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"snowboard/internal/cluster"
	"snowboard/internal/cover"
	"snowboard/internal/obs"
	"snowboard/internal/par"
	"snowboard/internal/pmc"
	"snowboard/internal/sched"
	"snowboard/internal/store"
)

// The feedback loop (Options.Feedback): instead of testing each PMC
// cluster at most once in one uncommon-first pass, the budget is spent in
// rounds, and the walk keeps going past the end of the order. Each round
//
//  1. walks the uncommon-first cluster order where the last round left
//     off, one draw per test of its budget, wrapping past the end — so
//     the loop visits the one-shot scheduler's clusters first, in its
//     order, and then visits them again;
//  2. coalesces independent drawn PMCs — disjoint memory channels whose
//     test pairs land on the same writer/reader programs — into a single
//     composed test, so one execution probes several channels
//     ("cooperative composing"), and refills what composing freed with
//     fresh draws from the clusters the round walked; and
//  3. executes the tests as one batch.
//
// Composing first exposes Table 2 rows sooner than the walk without it at
// equal trials. Allocating each round's budget by the clusters' recent
// segment yield, which the loop also did, found fewer rows than one-shot
// at the CLI's default budget and is gone (EXPERIMENTS.md, "Feedback
// mechanisms at equal trials"). Rounds remain the batch, adoption and
// checkpoint granularity.
//
// Every round is a pure function of the seed and the rounds before it, so
// feedback reports stay bit-identical across worker counts. With a store
// attached, each round checkpoints its cumulative segments, pipeline
// cursors, and partial report under a digest-linked chain key, so a
// killed feedback campaign resumes at the first unfinished round and the
// final report matches the uninterrupted run's byte for byte (modulo
// wall-clock timing fields).

// Feedback metrics.
var mFeedbackRounds = obs.C(obs.MFeedbackRounds)

// defaultFeedbackRounds is the round count when Options.FeedbackRounds is
// unset.
const defaultFeedbackRounds = 4

// maxComposedHints caps a composed test's PMC hints (primary + extras),
// leaving maxCurrentPMCs headroom for the explorer's incidental adoption,
// which in a round picks only PMCs of clusters the round does not test.
const maxComposedHints = 3

// feedbackRounds resolves the configured round count.
func (p *Pipeline) feedbackRounds() int {
	if p.Opts.FeedbackRounds > 0 {
		return p.Opts.FeedbackRounds
	}
	return defaultFeedbackRounds
}

// feedbackRoundState is the per-round checkpoint persisted as a
// KindFeedback artifact, everything needed to resume the loop after the
// round: the cumulative segment and alias-pair accumulators, the
// deterministic seed cursors, and the partial report.
type feedbackRoundState struct {
	Round        int                  `json:"round"` // 0-based, the round just finished
	TestsDone    int                  `json:"tests_done"`
	Cursor       int                  `json:"cursor"` // exploration-walk position after the round
	GenCalls     int                  `json:"gen_calls"`
	ExploreUnits int                  `json:"explore_units"`
	Segments     []cover.SegmentCount `json:"segments"`
	Pairs        []cover.Pair         `json:"pairs"`
	Report       json.RawMessage      `json:"report"` // partial Report (Metrics not yet captured)
}

// feedbackKeys derives the digest-linked chain key of every round: round
// r's key pins the corpus, the PMC set by how it is derived (pmcPart),
// every option that shapes the loop, the loop's mechanisms (loopPart), and
// — through prev — the whole round prefix. Returns nil when the corpus is
// not content-addressed (no store attached, or persisting it failed).
func (p *Pipeline) feedbackKeys(budget, rounds int) []store.Digest {
	cd := p.stage4Corpus("feedback")
	if cd.IsZero() {
		return nil
	}
	m := p.Opts.Method
	prev := store.Digest{}
	keys := make([]store.Digest, rounds)
	for i := range keys {
		prev = store.Key(keyPrefix, "feedback-round",
			"corpus="+cd.String(),
			pmcPart(p.Opts.PMC),
			fmt.Sprintf("version=%s", p.Opts.Version),
			fmt.Sprintf("seed=%d", p.Opts.Seed),
			fmt.Sprintf("method=%d/%s/%s/%d", m.Kind, m.Name, m.Strategy.Name, m.Order),
			fmt.Sprintf("budget=%d", budget),
			fmt.Sprintf("rounds=%d", rounds),
			fmt.Sprintf("trials=%d", p.Opts.Trials),
			detectPart(p.Opts.Detect),
			adoptionPart,
			loopPart,
			"prev="+prev.String(),
			fmt.Sprintf("round=%d", i),
		)
		keys[i] = prev
	}
	return keys
}

// resumeFeedback probes the chain keys newest-first and restores the most
// recent persisted round: report, segments, pairs, cursors. The report
// keeps what describes this run rather than the one that wrote the round —
// its worker count and its stage 1–2 timings. It returns the next round to
// run (0 when nothing usable is stored) and the restored exploration-walk
// cursor.
func (p *Pipeline) resumeFeedback(keys []store.Digest, r *Report) (int, int) {
	for round := len(keys) - 1; round >= 0; round-- {
		st, out, ok := loadMemo(p, "feedback", keys[round], roundCodec, nil)
		if !ok {
			continue
		}
		if st.Round != round {
			obs.Diag.Printf("stage feedback: discarding round artifact %s: shape mismatch", out.Short())
			continue
		}
		nr, err := reportCodec.decode(st.Report)
		if err != nil {
			obs.Diag.Printf("stage feedback: discarding round artifact %s: bad report: %v", out.Short(), err)
			continue
		}
		run := *r
		*r = *nr
		r.Workers, r.FuzzTime, r.ProfileTime, r.IdentifyTime = run.Workers, run.FuzzTime, run.ProfileTime, run.IdentifyTime
		p.segs = cover.ImportSegments(st.Segments)
		p.pairs = cover.New()
		p.pairs.AddPairs(st.Pairs)
		p.genCalls = st.GenCalls
		p.exploreUnits = st.ExploreUnits
		mIssuesFound.Set(int64(len(r.Issues)))
		mCoverPairs.Set(int64(r.CoverPairs))
		mCoverSegments.Set(int64(r.CoverSegments))
		obs.Diag.Printf("stage feedback: resumed after round %d (%s, %d tests done, %d segments)",
			round, out.Short(), st.TestsDone, r.CoverSegments)
		return round + 1, st.Cursor
	}
	return 0, 0
}

// checkpointFeedback persists the loop's state after one round. The
// report is stored without its delivery accounting (Distributed), which
// describes the run that pushed the batches, not the round: a round a
// campaign checkpointed equals one a local run did. RunFeedback never
// checkpoints a round in or after one that dead-lettered a job.
func (p *Pipeline) checkpointFeedback(key store.Digest, round, testsDone, cursor int, r *Report) {
	stored := *r
	stored.Distributed = nil
	payload, err := reportCodec.encode(&stored)
	if err != nil {
		obs.Diag.Printf("stage feedback: encode round report: %v", err)
		return
	}
	saveMemo(p, "feedback", key, roundCodec, &feedbackRoundState{
		Round:        round,
		TestsDone:    testsDone,
		Cursor:       cursor,
		GenCalls:     p.genCalls,
		ExploreUnits: p.exploreUnits,
		Segments:     p.segs.Export(),
		Pairs:        p.pairs.Pairs(),
		Report:       payload,
	}, nil)
}

// keyOverlap reports whether two PMC access keys touch overlapping bytes.
func keyOverlap(a, b pmc.Key) bool {
	return a.Addr < b.Addr+uint64(b.Size) && b.Addr < a.Addr+uint64(a.Size)
}

// independentChannels reports whether two PMCs are disjoint memory
// channels — no byte of one's write/read ranges overlaps the other's —
// and sit on distinct sites, the precondition for composing them into one
// test without the schedules interfering.
func independentChannels(a, b pmc.PMC) bool {
	if a.Write.Ins == b.Write.Ins && a.Read.Ins == b.Read.Ins {
		return false
	}
	return !keyOverlap(a.Write, b.Write) && !keyOverlap(a.Write, b.Read) &&
		!keyOverlap(a.Read, b.Write) && !keyOverlap(a.Read, b.Read)
}

// drawTest generates one concurrent test from cluster ci, or false when
// the cluster has no executable pairs.
func (p *Pipeline) drawTest(cs []cluster.Cluster, ci int, rng *rand.Rand) (sched.ConcurrentTest, bool) {
	ex := cluster.Exemplar(&cs[ci], rng)
	entry := p.PMCs.Entries[ex]
	if entry == nil || len(entry.Pairs) == 0 {
		return sched.ConcurrentTest{}, false
	}
	pair := entry.Pairs[rng.Intn(len(entry.Pairs))]
	hint := entry.PMC
	return sched.ConcurrentTest{
		Writer: p.Corpus.Progs[pair.Writer],
		Reader: p.Corpus.Progs[pair.Reader],
		Hint:   &hint,
		Pair:   pair,
	}, true
}

// composeTests coalesces drawn tests into executable ones: a test on the
// same (writer, reader) corpus pair as an earlier one, whose channel is
// independent of every channel the earlier one probes, rides along as an
// Extra hint of it; everything else stays a standalone test.
func composeTests(drawn []sched.ConcurrentTest) []sched.ConcurrentTest {
	var tests []sched.ConcurrentTest
	byPair := make(map[pmc.Pair]int) // corpus pair -> index into tests
	for _, c := range drawn {
		ti, ok := byPair[c.Pair]
		if ok {
			t := &tests[ti]
			compatible := len(t.Extra)+1 < maxComposedHints && independentChannels(*t.Hint, *c.Hint)
			for _, e := range t.Extra {
				if !compatible {
					break
				}
				compatible = independentChannels(e, *c.Hint)
			}
			if compatible {
				t.Extra = append(t.Extra, *c.Hint)
				continue
			}
		}
		tests = append(tests, c)
		if !ok {
			byPair[c.Pair] = len(tests) - 1
		}
	}
	return tests
}

// RunFeedback spends budget concurrent tests through the feedback loop
// described at the top of this file (stages 3+4, interleaved per round),
// and returns the error of a round's batch, after which no round runs.
// Non-PMC methods, empty corpora and strategies that yield no cluster
// degrade to the one-shot path with a note.
func (p *Pipeline) RunFeedback(r *Report, budget int) error {
	if p.Opts.Method.Kind != MethodPMC {
		return p.oneShot(r, budget, fmt.Sprintf("feedback ignored: method %s is not PMC-guided", p.Opts.Method.Name))
	}
	if p.Corpus == nil || p.Corpus.Len() == 0 {
		// GenerateTests records the empty-corpus note.
		return p.oneShot(r, budget, "")
	}

	rounds := p.feedbackRounds()
	if rounds > budget {
		rounds = budget
	}
	if rounds <= 0 {
		return nil
	}
	span := obs.StartSpan("stage.feedback")

	cs := cluster.Clusters(p.PMCs, p.Opts.Method.Strategy)
	if len(cs) == 0 {
		// No cluster to spend rounds on (the strategy keeps none of the
		// PMCs): the one-shot path generates no test either.
		span.End()
		return p.oneShot(r, budget, fmt.Sprintf("feedback ignored: method %s yields no PMC cluster", p.Opts.Method.Name))
	}
	p.indexClusters(cs)
	cluster.OrderClusters(cs, cluster.UncommonFirst, nil)
	r.ExemplarPMCs = len(cs)

	testsDone := 0
	keys := p.feedbackKeys(budget, rounds)
	// cursor is the next uncommon-first cluster the walk visits.
	startRound, cursor := p.resumeFeedback(keys, r)
	if startRound > 0 {
		// Recompute testsDone from the restored report rather than
		// trusting the artifact alone.
		testsDone = r.TestedTests
	}

	for round := startRound; round < rounds; round++ {
		roundBudget := budget / rounds
		if round < budget%rounds {
			roundBudget++
		}
		if roundBudget <= 0 {
			continue
		}
		// The round continues the uncommon-first walk where the last one
		// left off, wrapping past the end of the order.
		walked := make([]int, len(cs))
		for range roundBudget {
			walked[cursor%len(cs)]++
			cursor++
		}

		rng := rand.New(rand.NewSource(par.UnitSeed(p.Opts.Seed, par.StageGenerate, p.genCalls)))
		p.genCalls++
		var drawn []sched.ConcurrentTest
		for ci := range cs {
			for range walked[ci] {
				if ct, ok := p.drawTest(cs, ci, rng); ok {
					drawn = append(drawn, ct)
				}
			}
		}
		tests := composeTests(drawn)
		// Composing frees budget (one execution probes several channels);
		// refill from the clusters the round walked, in order, so the
		// round still spends its full execution budget.
		for ci := 0; len(tests) < roundBudget && ci < len(cs); ci++ {
			if walked[ci] == 0 {
				continue
			}
			if ct, ok := p.drawTest(cs, ci, rng); ok {
				tests = append(tests, ct)
			}
		}
		composed := 0
		for i := range tests {
			if len(tests[i].Extra) > 0 {
				composed++
			}
		}
		r.ComposedTests += composed
		r.GeneratedTests += len(tests)
		mGenTests.Add(int64(len(tests)))

		issuesBefore, segmentsBefore := len(r.Issues), r.CoverSegments
		deadBefore := r.Distributed.dead()
		if err := p.ExecuteTests(r, tests); err != nil {
			span.End()
			return err // nothing of the round is checkpointed
		}
		if keys != nil && r.Distributed.dead() > deadBefore {
			// A dead-lettered job's findings and coverage are missing from
			// the round, and every later round builds on it: none of them
			// is checkpointed, so no run resumes from one as complete. The
			// report's DeadJobs names what was lost.
			obs.Diag.Printf("stage feedback: round %d dead-lettered jobs; it and later rounds are not checkpointed", round)
			keys = nil
		}
		testsDone += len(tests)
		r.FeedbackRounds = round + 1
		mFeedbackRounds.Inc()
		obs.EmitTrace(p.trace, obs.EvFeedbackRound, obs.A("round", round), obs.A("tests", len(tests)),
			obs.A("composed", composed), obs.A("segments", r.CoverSegments-segmentsBefore),
			obs.A("issues", len(r.Issues)-issuesBefore))
		if keys != nil {
			p.checkpointFeedback(keys[round], round, testsDone, cursor, r)
		}
	}
	span.End()
	return nil
}

// oneShot runs the one-shot path in the feedback loop's place, noting why
// unless note is empty.
func (p *Pipeline) oneShot(r *Report, budget int, note string) error {
	if note != "" {
		obs.Diag.Printf("stage feedback: %s", note)
		r.Notes = append(r.Notes, note)
	}
	return p.ExecuteTests(r, p.GenerateTests(r, budget))
}
