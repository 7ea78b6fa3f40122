package core

import (
	"fmt"
	"reflect"
	"testing"

	"snowboard/internal/pmc"
	"snowboard/internal/queue"
	"snowboard/internal/sched"
	"snowboard/internal/store"
	"snowboard/internal/trace"
)

// --- allocateBudget ---

func TestAllocateBudgetProportional(t *testing.T) {
	got := allocateBudget(10, []int64{30, 10, 10, 0})
	want := []int{6, 2, 2, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("alloc %v, want %v", got, want)
	}
	sum := 0
	for _, a := range got {
		sum += a
	}
	if sum != 10 {
		t.Fatalf("allocation does not spend the budget: %d", sum)
	}
}

func TestAllocateBudgetZeroCredits(t *testing.T) {
	got := allocateBudget(10, []int64{0, 0, 0})
	if !reflect.DeepEqual(got, []int{0, 0, 0}) {
		t.Fatalf("zero-credit alloc %v, want all zeros (exploration walk's job)", got)
	}
	if got := allocateBudget(0, []int64{5, 5}); !reflect.DeepEqual(got, []int{0, 0}) {
		t.Fatalf("zero-budget alloc %v", got)
	}
	if got := allocateBudget(5, nil); len(got) != 0 {
		t.Fatalf("nil-credit alloc %v", got)
	}
}

func TestAllocateBudgetNegativeCreditsExcluded(t *testing.T) {
	got := allocateBudget(6, []int64{-4, 3, 3})
	want := []int{0, 3, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("alloc %v, want %v", got, want)
	}
}

func TestAllocateBudgetRemainderTieBreak(t *testing.T) {
	// 7 across three equal credits: 2 each, remainder 1 goes to the lowest
	// index (clusters arrive uncommon-first, so ties favor rarer comms).
	got := allocateBudget(7, []int64{5, 5, 5})
	want := []int{3, 2, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("alloc %v, want %v", got, want)
	}
}

// --- channel independence and composing ---

func fbKey(ins trace.Ins, addr uint64, size uint8) pmc.Key {
	return pmc.Key{Ins: ins, Addr: addr, Size: size, Val: 1}
}

var (
	fbInsW1 = trace.DefIns("feedback_test:w1")
	fbInsW2 = trace.DefIns("feedback_test:w2")
	fbInsR1 = trace.DefIns("feedback_test:r1")
	fbInsR2 = trace.DefIns("feedback_test:r2")
)

func TestKeyOverlap(t *testing.T) {
	a := fbKey(fbInsW1, 0x100, 8)
	for _, tc := range []struct {
		b    pmc.Key
		want bool
	}{
		{fbKey(fbInsR1, 0x100, 8), true},  // identical range
		{fbKey(fbInsR1, 0x104, 2), true},  // contained
		{fbKey(fbInsR1, 0x106, 8), true},  // straddles the end
		{fbKey(fbInsR1, 0x108, 8), false}, // adjacent, no shared byte
		{fbKey(fbInsR1, 0x0f8, 8), false}, // adjacent below
		{fbKey(fbInsR1, 0x200, 8), false}, // disjoint
	} {
		if got := keyOverlap(a, tc.b); got != tc.want {
			t.Errorf("keyOverlap(%x+%d, %x+%d) = %t, want %t",
				a.Addr, a.Size, tc.b.Addr, tc.b.Size, got, tc.want)
		}
		if keyOverlap(a, tc.b) != keyOverlap(tc.b, a) {
			t.Errorf("keyOverlap not symmetric for %x/%x", a.Addr, tc.b.Addr)
		}
	}
}

func TestIndependentChannels(t *testing.T) {
	a := pmc.PMC{Write: fbKey(fbInsW1, 0x100, 8), Read: fbKey(fbInsR1, 0x100, 8)}
	disjoint := pmc.PMC{Write: fbKey(fbInsW2, 0x200, 8), Read: fbKey(fbInsR2, 0x200, 8)}
	if !independentChannels(a, disjoint) {
		t.Fatal("disjoint channels on distinct sites must be independent")
	}
	overlapping := pmc.PMC{Write: fbKey(fbInsW2, 0x104, 8), Read: fbKey(fbInsR2, 0x200, 8)}
	if independentChannels(a, overlapping) {
		t.Fatal("overlapping write ranges must not be independent")
	}
	sameSites := pmc.PMC{Write: fbKey(fbInsW1, 0x300, 8), Read: fbKey(fbInsR1, 0x300, 8)}
	if independentChannels(a, sameSites) {
		t.Fatal("same write/read instruction pair must not be independent")
	}
}

// schedTest builds a minimal composable test; composeTests only inspects
// Pair, Hint, and Extra.
func schedTest(pair pmc.Pair, hint *pmc.PMC) sched.ConcurrentTest {
	return sched.ConcurrentTest{Hint: hint, Pair: pair}
}

func TestComposeTestsCoalescesIndependent(t *testing.T) {
	pair := pmc.Pair{Writer: 0, Reader: 1}
	mkCand := func(cluster int, addr uint64) feedbackCandidate {
		hint := pmc.PMC{Write: fbKey(fbInsW1, addr, 8), Read: fbKey(fbInsR1, addr+0x1000, 8)}
		hint.Write.Ins = trace.DefIns(fmt.Sprintf("feedback_test:cw%x", addr))
		hint.Read.Ins = trace.DefIns(fmt.Sprintf("feedback_test:cr%x", addr))
		return feedbackCandidate{
			cluster: cluster,
			test:    schedTest(pair, &hint),
		}
	}
	// Three independent candidates on the same corpus pair compose into one
	// test with maxComposedHints hints; the fourth starts a new test.
	cands := []feedbackCandidate{
		mkCand(0, 0x100), mkCand(1, 0x200), mkCand(2, 0x300), mkCand(3, 0x400),
	}
	tests, contributors := composeTests(cands)
	if len(tests) != 2 {
		t.Fatalf("composed into %d tests, want 2", len(tests))
	}
	if got := len(tests[0].Extra) + 1; got != maxComposedHints {
		t.Fatalf("first test carries %d hints, want %d", got, maxComposedHints)
	}
	if !reflect.DeepEqual(contributors[0], []int{0, 1, 2}) || !reflect.DeepEqual(contributors[1], []int{3}) {
		t.Fatalf("contributors %v, want [[0 1 2] [3]]", contributors)
	}
}

func TestComposeTestsKeepsDependentApart(t *testing.T) {
	pair := pmc.Pair{Writer: 0, Reader: 1}
	a := pmc.PMC{Write: fbKey(fbInsW1, 0x100, 8), Read: fbKey(fbInsR1, 0x500, 8)}
	overlapping := pmc.PMC{Write: fbKey(fbInsW2, 0x104, 8), Read: fbKey(fbInsR2, 0x600, 8)}
	tests, contributors := composeTests([]feedbackCandidate{
		{cluster: 0, test: schedTest(pair, &a)},
		{cluster: 1, test: schedTest(pair, &overlapping)},
	})
	if len(tests) != 2 || len(tests[0].Extra) != 0 {
		t.Fatalf("overlapping channels composed: %d tests, extras %d", len(tests), len(tests[0].Extra))
	}
	if !reflect.DeepEqual(contributors, [][]int{{0}, {1}}) {
		t.Fatalf("contributors %v", contributors)
	}
}

func TestComposeTestsDistinctPairsStaySeparate(t *testing.T) {
	a := pmc.PMC{Write: fbKey(fbInsW1, 0x100, 8), Read: fbKey(fbInsR1, 0x500, 8)}
	b := pmc.PMC{Write: fbKey(fbInsW2, 0x200, 8), Read: fbKey(fbInsR2, 0x600, 8)}
	tests, _ := composeTests([]feedbackCandidate{
		{cluster: 0, test: schedTest(pmc.Pair{Writer: 0, Reader: 1}, &a)},
		{cluster: 1, test: schedTest(pmc.Pair{Writer: 2, Reader: 3}, &b)},
	})
	if len(tests) != 2 {
		t.Fatalf("distinct corpus pairs composed: %d tests", len(tests))
	}
}

// --- feedback loop determinism and resume ---

// feedbackDigest flattens everything the feedback determinism contract
// covers, mirroring reportDigest for the one-shot path, plus the new
// segment, round, and composition counters.
type feedbackDigest struct {
	Issues       map[int]string
	Counters     [8]int
	CoverPairs   int
	CoverSegs    int
	Rounds       int
	Composed     int
	Generated    int
	ExemplarPMC  int
	SegmentsHash uint64
}

func feedbackDigestOf(p *Pipeline, r *Report) feedbackDigest {
	d := feedbackDigest{
		CoverPairs:  r.CoverPairs,
		CoverSegs:   r.CoverSegments,
		Rounds:      r.FeedbackRounds,
		Composed:    r.ComposedTests,
		Generated:   r.GeneratedTests,
		ExemplarPMC: r.ExemplarPMCs,
		Issues:      make(map[int]string),
		Counters: [8]int{r.CorpusSize, r.ProfiledAccesses, r.TestedTests, r.TestedPMCs,
			r.Exercised, r.TrialsRun, r.Switches, r.Steps},
	}
	for id, rec := range r.Issues {
		d.Issues[id] = fmt.Sprintf("%s|test=%d|trial=%d|count=%d|repro=%v",
			rec.Issue.ID(), rec.TestIndex, rec.Trial, rec.Count, rec.Repro != nil)
	}
	for _, sc := range p.segs.Export() {
		d.SegmentsHash = fnv1a(d.SegmentsHash, fmt.Sprintf("%d:%d:%d:%d:%d",
			sc.Seg.First.Write, sc.Seg.First.Read, sc.Seg.Second.Write, sc.Seg.Second.Read, sc.N))
	}
	return d
}

func feedbackOpts(workers int) Options {
	opts := DefaultOptions()
	opts.Seed = 7
	opts.FuzzBudget = 220
	opts.CorpusCap = 45
	opts.TestBudget = 16
	opts.Trials = 6
	opts.Workers = workers
	opts.Feedback = true
	return opts
}

func feedbackRun(t *testing.T, workers int, st *store.Store) (*Pipeline, *Report) {
	t.Helper()
	opts := feedbackOpts(workers)
	p := NewPipeline(opts)
	if st != nil {
		p.UseStore(st)
	}
	r := p.NewReport()
	p.BuildCorpus(r)
	if err := p.ProfileAll(r); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	p.IdentifyPMCs(r)
	p.RunFeedback(r, opts.TestBudget)
	return p, r
}

// TestFeedbackWorkerDeterminism is the feedback-mode analogue of the
// pipeline determinism golden test: the full feedback campaign must produce
// identical issues, counters, and segment accumulators at 1, 2, and 8
// workers, and repeated 8-worker runs must agree.
func TestFeedbackWorkerDeterminism(t *testing.T) {
	p1, r1 := feedbackRun(t, 1, nil)
	d1 := feedbackDigestOf(p1, r1)
	if d1.Rounds == 0 || d1.CoverSegs == 0 || len(d1.Issues) == 0 {
		t.Fatalf("degenerate feedback run: rounds=%d segs=%d issues=%d",
			d1.Rounds, d1.CoverSegs, len(d1.Issues))
	}
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"workers=2", 2}, {"workers=8", 8}, {"workers=8 (repeat)", 8},
	} {
		p, r := feedbackRun(t, tc.workers, nil)
		if d := feedbackDigestOf(p, r); !reflect.DeepEqual(d1, d) {
			t.Errorf("%s diverged from workers=1:\n  a: %+v\n  b: %+v", tc.name, d1, d)
		}
	}
}

// TestFeedbackResumeMatchesUninterrupted simulates a campaign killed after
// round 1: only the first two round checkpoints are copied into a fresh
// store, a new pipeline at another worker count resumes from them, and the
// final state must be identical to the uninterrupted campaign's. The
// resumed report names the run that resumed — its worker count and stage
// 1–2 timings (none: it ran no stage 1 or 2) — not the one that wrote the
// rounds.
func TestFeedbackResumeMatchesUninterrupted(t *testing.T) {
	full, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pFull, rFull := feedbackRun(t, 2, full)
	want := feedbackDigestOf(pFull, rFull)
	if want.Rounds < 3 {
		t.Fatalf("need at least 3 rounds to test a mid-campaign kill, got %d", want.Rounds)
	}

	// Copy rounds 0 and 1 — checkpoint memos and their payload artifacts —
	// into a fresh store: the state a kill after round 1 leaves behind.
	partial, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := pFull.feedbackKeys(pFull.Opts.TestBudget, want.Rounds)
	if keys == nil {
		t.Fatal("no feedback keys with a store attached")
	}
	for _, key := range keys[:2] {
		res, err := full.GetStage(key)
		if err != nil {
			t.Fatalf("round checkpoint missing: %v", err)
		}
		payload, err := full.Get(res.Kind, res.Out)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := partial.Put(res.Kind, payload); err != nil {
			t.Fatal(err)
		}
		if err := partial.PutStage(key, res); err != nil {
			t.Fatal(err)
		}
	}

	pRes := NewPipeline(feedbackOpts(1))
	pRes.UseStore(partial)
	pRes.SetCorpus(pFull.Corpus)
	pRes.SetProfiles(pFull.Profiles)
	pRes.SetPMCs(pFull.PMCs)
	rRes := pRes.NewReport()
	pRes.RunFeedback(rRes, pRes.Opts.TestBudget)
	if got := feedbackDigestOf(pRes, rRes); !reflect.DeepEqual(want, got) {
		t.Fatalf("resumed campaign diverged from uninterrupted:\n  want: %+v\n  got:  %+v", want, got)
	}
	if rFull.Workers != 2 || rFull.FuzzTime == 0 || rFull.ProfileTime == 0 || rFull.IdentifyTime == 0 {
		t.Fatalf("the uninterrupted run reports workers=%d and stage 1–2 times %v/%v/%v", rFull.Workers,
			rFull.FuzzTime, rFull.ProfileTime, rFull.IdentifyTime)
	}
	if rRes.Workers != 1 || rRes.FuzzTime != 0 || rRes.ProfileTime != 0 || rRes.IdentifyTime != 0 {
		t.Errorf("the resumed run reports workers=%d and stage 1–2 times %v/%v/%v, want its own: 1 and none",
			rRes.Workers, rRes.FuzzTime, rRes.ProfileTime, rRes.IdentifyTime)
	}
}

// TestFeedbackNonPMCMethodDegrades checks the documented fallback: feedback
// under a non-PMC method runs the one-shot path and records a note.
func TestFeedbackNonPMCMethodDegrades(t *testing.T) {
	opts := feedbackOpts(2)
	for _, m := range Methods() {
		if m.Kind != MethodPMC {
			opts.Method = m
			break
		}
	}
	if opts.Method.Kind == MethodPMC {
		t.Skip("no non-PMC method registered")
	}
	p := NewPipeline(opts)
	r := p.NewReport()
	p.BuildCorpus(r)
	if err := p.ProfileAll(r); err != nil {
		t.Fatal(err)
	}
	p.IdentifyPMCs(r)
	p.RunFeedback(r, opts.TestBudget)
	if r.FeedbackRounds != 0 {
		t.Fatalf("non-PMC method ran %d feedback rounds", r.FeedbackRounds)
	}
	if len(r.Notes) == 0 {
		t.Fatal("degraded run recorded no note")
	}
	if r.TestedTests == 0 {
		t.Fatal("degraded run executed no tests")
	}
}

// TestFeedbackWithoutClustersDegrades: a feedback spec whose strategy
// keeps none of the PMCs has no cluster to spend rounds on. It used to
// divide by the cluster count — killing the process, or every tenant of
// an sbd server — and now runs the one-shot path with a note, through Run
// and through a campaign alike.
func TestFeedbackWithoutClustersDegrades(t *testing.T) {
	opts := DefaultOptions()
	opts.Method, _ = MethodByName("S-CH-UNALIGNED")
	opts.FuzzBudget, opts.CorpusCap, opts.TestBudget, opts.Feedback = 1, 2, 4, true
	local, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := queue.NewRegistry(queue.Options{})
	defer reg.Close()
	c, err := StartCampaign(CampaignSpec{
		Method: opts.Method.Name, Seed: opts.Seed, FuzzBudget: opts.FuzzBudget,
		CorpusCap: opts.CorpusCap, TestBudget: opts.TestBudget, Feedback: true,
	}, CampaignEnv{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Report{"Run": local, "campaign": queued} {
		if r.DistinctPMCs == 0 || r.ExemplarPMCs != 0 || r.TestedTests != 0 || len(r.Notes) != 1 {
			t.Fatalf("%s: %d PMCs, %d clusters, %d tests, notes %q; want PMCs, no cluster, no test and one note",
				name, r.DistinctPMCs, r.ExemplarPMCs, r.TestedTests, r.Notes)
		}
	}
	if queued.Distributed != nil {
		t.Fatalf("a campaign that pushed no job reports delivery %+v", queued.Distributed)
	}
	if got, want := normalizeTimings(queued), normalizeTimings(local); !reflect.DeepEqual(got, want) {
		t.Fatalf("the campaign's report differs from Run's:\n%+v\nvs\n%+v", got, want)
	}
}
