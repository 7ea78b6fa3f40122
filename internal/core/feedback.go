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

// The closed feedback loop (Options.Feedback): instead of ranking PMC
// clusters once and walking the ranking until the test budget runs out,
// the budget is spent in rounds. Each round
//
//  1. allocates its share of the budget — at most half to clusters with
//     recent interleaving-segment yield, proportional to that yield
//     (bandit-style exploitation), the rest continuing an uncommon-first
//     exploration walk; with no credit the walk gets everything, so a
//     zero-signal run visits exactly the one-shot scheduler's clusters —
//  2. coalesces independent selected PMCs — disjoint memory channels
//     whose test pairs land on the same writer/reader programs — into a
//     single composed test, so one execution probes several channels
//     ("cooperative composing"),
//  3. executes the tests, and
//  4. credits each test's fresh-segment yield back to the clusters that
//     contributed its hints, steering the next round.
//
// Allocation and composing each first expose some Table 2 row sooner than
// the arm without them, at equal trials (EXPERIMENTS.md, "Feedback
// mechanisms at equal trials").
//
// Every quantity that steers allocation is a pure function of test order
// — per-test segment accumulators folded sequentially — so feedback
// reports stay bit-identical across worker counts. With a store
// attached, each round checkpoints its credits, cumulative segments,
// pipeline cursors, and partial report under a digest-linked chain key,
// so a killed feedback campaign resumes at the first unfinished round
// and the final report matches the uninterrupted run's byte for byte
// (modulo wall-clock timing fields).

// Feedback metrics.
var mFeedbackRounds = obs.C(obs.MFeedbackRounds)

// defaultFeedbackRounds is the round count when Options.FeedbackRounds is
// unset: enough rounds for credit to steer, few enough that early rounds
// still get a meaningful budget share.
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
// round: bandit credits, the cumulative segment accumulator, the
// deterministic seed cursors, and the partial report.
type feedbackRoundState struct {
	Round        int                  `json:"round"` // 0-based, the round just finished
	TestsDone    int                  `json:"tests_done"`
	Cursor       int                  `json:"cursor"` // exploration-walk position after the round
	GenCalls     int                  `json:"gen_calls"`
	ExploreUnits int                  `json:"explore_units"`
	Credits      []int64              `json:"credits"` // by ordered-cluster index
	Segments     []cover.SegmentCount `json:"segments"`
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
// recent persisted round: report, credits, segments, cursors. The report
// keeps what describes this run rather than the one that wrote the round —
// its worker count and its stage 1–2 timings. It returns the next round to
// run (0 when nothing usable is stored) and the restored exploration-walk
// cursor.
func (p *Pipeline) resumeFeedback(keys []store.Digest, r *Report, credits []int64) (int, int) {
	for round := len(keys) - 1; round >= 0; round-- {
		st, out, ok := loadMemo(p, "feedback", keys[round], roundCodec, nil)
		if !ok {
			continue
		}
		if st.Round != round || len(st.Credits) != len(credits) {
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
		copy(credits, st.Credits)
		p.segs = cover.ImportSegments(st.Segments)
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
func (p *Pipeline) checkpointFeedback(key store.Digest, round, testsDone, cursor int, credits []int64, r *Report) {
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
		Credits:      append([]int64(nil), credits...),
		Segments:     p.segs.Export(),
		Report:       payload,
	}, nil)
}

// allocateBudget splits budget across positive-credit clusters
// proportional to their credit, by largest remainder with index
// tie-break (the clusters arrive uncommon-first, so ties favor rarer
// communication). Clusters without credit get nothing — exploration of
// unproven clusters is the cursor walk's job, not this function's. With
// no positive credit at all the allocation is all zeros.
func allocateBudget(budget int, credits []int64) []int {
	n := len(credits)
	alloc := make([]int, n)
	if n == 0 || budget <= 0 {
		return alloc
	}
	var total int64
	for _, c := range credits {
		if c > 0 {
			total += c
		}
	}
	if total == 0 {
		return alloc
	}
	type rem struct {
		idx int
		rem int64
	}
	rems := make([]rem, 0, n)
	given := 0
	for i, c := range credits {
		if c <= 0 {
			continue
		}
		share := int64(budget) * c
		alloc[i] = int(share / total)
		rems = append(rems, rem{idx: i, rem: share % total})
		given += alloc[i]
	}
	// Hand the leftover to the largest remainders, lowest index first on
	// ties (the clusters arrive uncommon-first).
	left := budget - given
	for left > 0 {
		best := -1
		for i := range rems {
			if rems[i].rem < 0 {
				continue
			}
			if best < 0 || rems[i].rem > rems[best].rem {
				best = i
			}
		}
		if best < 0 {
			break
		}
		alloc[rems[best].idx]++
		rems[best].rem = -1
		left--
	}
	return alloc
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

// feedbackCandidate is one cluster-drawn test before composing.
type feedbackCandidate struct {
	test    sched.ConcurrentTest
	cluster int
}

// drawCandidate generates one concurrent test from cluster ci, or false
// when the cluster has no executable pairs.
func (p *Pipeline) drawCandidate(cs []cluster.Cluster, ci int, rng *rand.Rand) (feedbackCandidate, bool) {
	ex := cluster.Exemplar(&cs[ci], rng)
	entry := p.PMCs.Entries[ex]
	if entry == nil || len(entry.Pairs) == 0 {
		return feedbackCandidate{}, false
	}
	pair := entry.Pairs[rng.Intn(len(entry.Pairs))]
	hint := entry.PMC
	return feedbackCandidate{
		cluster: ci,
		test: sched.ConcurrentTest{
			Writer: p.Corpus.Progs[pair.Writer],
			Reader: p.Corpus.Progs[pair.Reader],
			Hint:   &hint,
			Pair:   pair,
		},
	}, true
}

// composeTests coalesces candidates into executable tests: candidates on
// the same (writer, reader) corpus pair whose channels are mutually
// independent ride along as Extra hints of the first; everything else
// stays a standalone test. Returns the tests plus, per test, the cluster
// indices that contributed hints (for credit attribution).
func composeTests(cands []feedbackCandidate) (tests []sched.ConcurrentTest, contributors [][]int) {
	byPair := make(map[pmc.Pair]int) // corpus pair -> index into tests
	for _, c := range cands {
		ti, ok := byPair[c.test.Pair]
		if ok {
			t := &tests[ti]
			compatible := len(t.Extra)+1 < maxComposedHints
			if compatible && !independentChannels(*t.Hint, *c.test.Hint) {
				compatible = false
			}
			for _, e := range t.Extra {
				if !compatible {
					break
				}
				if !independentChannels(e, *c.test.Hint) {
					compatible = false
				}
			}
			if compatible {
				t.Extra = append(t.Extra, *c.test.Hint)
				contributors[ti] = append(contributors[ti], c.cluster)
				continue
			}
		}
		tests = append(tests, c.test)
		contributors = append(contributors, []int{c.cluster})
		if !ok {
			byPair[c.test.Pair] = len(tests) - 1
		}
	}
	return tests, contributors
}

// RunFeedback spends budget concurrent tests through the closed feedback
// loop described at the top of this file (stages 3+4, interleaved per
// round). Non-PMC methods, empty corpora and strategies that yield no
// cluster degrade to the one-shot path with a note.
func (p *Pipeline) RunFeedback(r *Report, budget int) {
	if p.Opts.Method.Kind != MethodPMC {
		p.oneShot(r, budget, fmt.Sprintf("feedback ignored: method %s is not PMC-guided", p.Opts.Method.Name))
		return
	}
	if p.Corpus == nil || p.Corpus.Len() == 0 {
		// GenerateTests records the empty-corpus note.
		p.oneShot(r, budget, "")
		return
	}

	rounds := p.feedbackRounds()
	if rounds > budget {
		rounds = budget
	}
	if rounds <= 0 {
		return
	}
	span := obs.StartSpan("stage.feedback")

	cs := cluster.Clusters(p.PMCs, p.Opts.Method.Strategy)
	if len(cs) == 0 {
		// No cluster to spend rounds on (the strategy keeps none of the
		// PMCs): the one-shot path generates no test either.
		span.End()
		p.oneShot(r, budget, fmt.Sprintf("feedback ignored: method %s yields no PMC cluster", p.Opts.Method.Name))
		return
	}
	p.indexClusters(cs)
	// The stable uncommon-first order is the zero-credit prior; feedback
	// reorders budget, not the clusters themselves.
	cluster.OrderClusters(cs, cluster.UncommonFirst, nil)
	r.ExemplarPMCs = len(cs)

	credits := make([]int64, len(cs))
	testsDone := 0
	keys := p.feedbackKeys(budget, rounds)
	// cursor is the next uncommon-first cluster the exploration walk visits.
	startRound, cursor := p.resumeFeedback(keys, r, credits)
	if startRound > 0 {
		// Recompute testsDone from the restored report rather than
		// trusting the artifact alone.
		testsDone = r.TestedTests
	}

	for round := startRound; round < rounds; round++ {
		if round > 0 {
			// Halve credit each round so allocation follows *recent* yield:
			// a cluster that went quiet decays back toward the uniform
			// prior within a few rounds.
			for i := range credits {
				credits[i] -= credits[i] / 2
			}
		}
		roundBudget := budget / rounds
		if round < budget%rounds {
			roundBudget++
		}
		if roundBudget <= 0 {
			continue
		}
		// Explore/exploit split: at most half the round goes to clusters
		// with recent segment yield (proportional, largest remainder); the
		// rest continues the uncommon-first walk where it left off. With no
		// credit yet — round 0, or a dry spell — the walk gets everything,
		// so a zero-signal feedback run visits exactly the clusters the
		// one-shot uncommon-first scheduler would.
		alloc := allocateBudget(roundBudget/2, credits)
		exploit := 0
		for _, a := range alloc {
			exploit += a
		}
		for k := 0; k < roundBudget-exploit; k++ {
			alloc[cursor%len(cs)]++
			cursor++
		}

		rng := rand.New(rand.NewSource(par.UnitSeed(p.Opts.Seed, par.StageGenerate, p.genCalls)))
		p.genCalls++
		var cands []feedbackCandidate
		for ci := range cs {
			for k := 0; k < alloc[ci]; k++ {
				if c, ok := p.drawCandidate(cs, ci, rng); ok {
					cands = append(cands, c)
				}
			}
		}
		tests, contributors := composeTests(cands)
		// Composing frees budget (one execution probes several channels);
		// refill from the allocation order so the round still spends its
		// full execution budget.
		refill := 0
		for len(tests) < roundBudget && refill < len(cs) {
			ci := refill % len(cs)
			refill++
			if alloc[ci] == 0 {
				continue
			}
			if c, ok := p.drawCandidate(cs, ci, rng); ok {
				tests = append(tests, c.test)
				contributors = append(contributors, []int{c.cluster})
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

		issuesBefore := len(r.Issues)
		deadBefore := r.Distributed.dead()
		yields := p.ExecuteTests(r, tests)
		if p.err != nil {
			break // the round's batch failed: nothing of it is checkpointed
		}
		if keys != nil && r.Distributed.dead() > deadBefore {
			// A dead-lettered job's findings and yield are missing from the
			// round, and every later round steers by its credits: none of
			// them is checkpointed, so no run resumes from one as complete.
			// The report's DeadJobs names what was lost.
			obs.Diag.Printf("stage feedback: round %d dead-lettered jobs; it and later rounds are not checkpointed", round)
			keys = nil
		}
		newSegments := 0
		for ti, y := range yields {
			newSegments += y
			if y == 0 {
				continue
			}
			for _, ci := range contributors[ti] {
				credits[ci] += int64(y)
			}
		}
		testsDone += len(tests)
		r.FeedbackRounds = round + 1
		mFeedbackRounds.Inc()
		obs.EmitTrace(p.trace, obs.EvFeedbackRound, obs.A("round", round), obs.A("tests", len(tests)),
			obs.A("composed", composed), obs.A("segments", newSegments),
			obs.A("issues", len(r.Issues)-issuesBefore))
		if keys != nil {
			p.checkpointFeedback(keys[round], round, testsDone, cursor, credits, r)
		}
	}
	span.End()
}

// oneShot runs the one-shot path in the feedback loop's place, noting why
// unless note is empty.
func (p *Pipeline) oneShot(r *Report, budget int, note string) {
	if note != "" {
		obs.Diag.Printf("stage feedback: %s", note)
		r.Notes = append(r.Notes, note)
	}
	p.ExecuteTests(r, p.GenerateTests(r, budget))
}
