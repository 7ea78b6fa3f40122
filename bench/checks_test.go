package main

import (
	"strings"
	"testing"
	"time"

	"snowboard/internal/core"
	"snowboard/internal/detect"
	"snowboard/internal/exec"
	"snowboard/internal/kernel"
	"snowboard/internal/pmc"
	"snowboard/internal/trace"
)

func TestReportDigestIgnoresOnlyTimingWorkersMetrics(t *testing.T) {
	base := func() *core.Report {
		return &core.Report{
			Method: "S-INS-PAIR", Version: kernel.V5_12_RC3, Workers: 1,
			TestedTests: 10, TrialsRun: 240, CoverSegments: 31,
			ExecTime: time.Second, FuzzTime: time.Millisecond,
			Issues: map[int]core.IssueRecord{
				13: {Issue: detect.Issue{Kind: detect.KindDataRace, BugID: 13}, TestIndex: 2, Count: 4},
			},
		}
	}
	want, err := reportDigest(base())
	if err != nil {
		t.Fatal(err)
	}
	timing := base()
	timing.Workers = 2
	timing.ExecTime, timing.FuzzTime, timing.ProfileTime = 3*time.Second, time.Hour, time.Minute
	timing.IdentifyTime, timing.ClusterTime = time.Second, time.Second
	timing.CaptureMetrics()
	if got, _ := reportDigest(timing); got != want {
		t.Errorf("digest moved with timing, workers and metrics: %s vs %s", got, want)
	}
	if timing.Workers != 2 || timing.Metrics == nil {
		t.Error("reportDigest modified the report it was given")
	}
	issue := base()
	issue.Issues[11] = core.IssueRecord{Issue: detect.Issue{Kind: detect.KindPanic, BugID: 11}}
	if got, _ := reportDigest(issue); got == want {
		t.Error("digest ignores an extra issue")
	}
	count := base()
	count.TrialsRun++
	if got, _ := reportDigest(count); got == want {
		t.Error("digest ignores a counter")
	}
}

func TestCheckFoldTripsOnTamperedSummary(t *testing.T) {
	clean := &core.DistSummary{Expected: 8, Reported: 8, Trials: 64}
	if failed, problems := checkFold(clean); failed != 0 || len(problems) != 0 {
		t.Fatalf("clean fold: %d failed, %v", failed, problems)
	}
	for name, sum := range map[string]*core.DistSummary{
		"dropped job":  {Expected: 8, Reported: 7, Missing: []int{5}},
		"dead letter":  {Expected: 8, Reported: 7, DeadJobs: []int{2}},
		"duplicate":    {Expected: 8, Reported: 8, Duplicates: 1},
		"short report": {Expected: 8, Reported: 6},
	} {
		if failed, problems := checkFold(sum); failed == 0 || len(problems) == 0 {
			t.Errorf("%s: %d failed, problems %v", name, failed, problems)
		}
	}
	if failed, problems := checkFold(nil); failed == 0 || len(problems) == 0 {
		t.Error("a report without a distributed summary passed")
	}
}

func TestCheckSameSetTripsOnUnequalSets(t *testing.T) {
	w := pmc.Key{Ins: trace.DefIns("bench_test:w"), Addr: 0x100, Size: 4, Val: 1}
	r := pmc.Key{Ins: trace.DefIns("bench_test:r"), Addr: 0x100, Size: 4, Val: 0}
	build := func(pairs ...pmc.Pair) *pmc.Set {
		s := pmc.NewSet()
		for _, p := range pairs {
			s.Add(pmc.PMC{Write: w, Read: r}, p)
		}
		return s
	}
	a := build(pmc.Pair{Writer: 0, Reader: 1}, pmc.Pair{Writer: 2, Reader: 1})
	if diff := checkSameSet(a, build(pmc.Pair{Writer: 2, Reader: 1}, pmc.Pair{Writer: 0, Reader: 1})); diff != "" {
		t.Errorf("equal sets differ: %s", diff)
	}
	if diff := checkSameSet(a, build(pmc.Pair{Writer: 0, Reader: 1})); diff == "" {
		t.Error("a set missing a pair compared equal")
	}
}

// findingWithRepro runs small campaigns until one records a crash-level
// finding on the very trial its repro state pins.
func findingWithRepro(t *testing.T) (int, core.IssueRecord, core.Options) {
	t.Helper()
	sc := smokeScale
	sc.fuzz, sc.corpusCap, sc.tests, sc.trials = 300, 60, 60, 12
	for seed := int64(1); seed <= 12; seed++ {
		opts := campaignOpts(sc, seed, false)
		r, err := core.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range r.BugIDs() {
			rec := r.Issues[id]
			if rec.Repro != nil && rec.Trial == rec.Repro.Trial && detect.CrashLevel(rec.Issue.Kind) {
				return id, rec, opts
			}
		}
	}
	t.Skip("no small campaign recorded a replayable crash")
	return 0, core.IssueRecord{}, core.Options{}
}

func TestCheckFindingTripsOnWrongBugID(t *testing.T) {
	id, rec, opts := findingWithRepro(t)
	env := exec.NewEnv(kernel.Config{Version: opts.Version})
	if err := checkFinding(env, id, rec, opts.Detect); err != nil {
		t.Fatalf("recorded finding does not check: %v", err)
	}
	// The same record under another id: misfiled.
	if err := checkFinding(env, 1, rec, opts.Detect); err == nil || !strings.Contains(err.Error(), "filed under") {
		t.Errorf("finding #%d passed as issue #1: %v", id, err)
	}
	// A trial that runs a different schedule exposes nothing to replay to.
	wrong := rec
	state := *rec.Repro
	state.Seed, state.PMCs, state.Flags, state.Flips = state.Seed+12345, nil, nil, nil
	wrong.Repro = &state
	if err := checkFinding(env, id, wrong, opts.Detect); err == nil || !strings.Contains(err.Error(), "does not replay") {
		t.Errorf("finding #%d replayed from a different trial: %v", id, err)
	}
	if err := checkFinding(env, 99, rec, opts.Detect); err == nil || !strings.Contains(err.Error(), "Table 2") {
		t.Errorf("issue #99 passed as a Table 2 row: %v", err)
	}
}

func TestStableDigestIgnoresOnlyAttribution(t *testing.T) {
	base := func() *core.Report {
		return &core.Report{
			TestedTests: 10, TrialsRun: 240,
			Issues:      map[int]core.IssueRecord{11: {Issue: detect.Issue{Kind: detect.KindPanic, BugID: 11}}},
			Distributed: &core.DistSummary{Expected: 10, Reported: 10, BugIDs: []int{11}, IssueIDs: []string{"panic:x"}},
		}
	}
	want, err := stableDigest(base())
	if err != nil {
		t.Fatal(err)
	}
	other := base()
	other.Issues = map[int]core.IssueRecord{12: {Issue: detect.Issue{Kind: detect.KindPanic, BugID: 12}}}
	other.Distributed.BugIDs = []int{12}
	other.Notes = []string{"triage: issue #12: lost signature"}
	if got, _ := stableDigest(other); got != want {
		t.Errorf("stable digest moved with issue attribution: %s vs %s", got, want)
	}
	if len(other.Issues) != 1 || other.Distributed.BugIDs == nil {
		t.Error("stableDigest modified the report it was given")
	}
	trials := base()
	trials.TrialsRun++
	if got, _ := stableDigest(trials); got == want {
		t.Error("stable digest ignores a counter")
	}
	fold := base()
	fold.Distributed.IssueIDs = nil
	if got, _ := stableDigest(fold); got == want {
		t.Error("stable digest ignores the distributed fold")
	}
}

func TestCompareRunsTripsOnCountsAndTimings(t *testing.T) {
	run := func() childRun {
		c := childRun{Result: result{Correct: true, Metrics: make(map[string]value)}}
		for _, m := range endToEnd {
			c.Result.Metrics[m.Name] = value{100, m.Unit}
		}
		c.Report.Prefix = []unitResult{{Seed: 4, Digest: "aa", Stable: "aa", Issues: 7, Segments: 300, Mallocs: 1000000,
			Spent: budget{Tests: 137, Trials: 3176}}}
		return c
	}
	if diffs := compareRuns("hunt", run(), run()); len(diffs) != 0 {
		t.Fatalf("identical runs differ: %v", diffs)
	}
	near := run()
	near.Result.Metrics["wall_s"] = value{104, "s"}
	near.Report.Prefix[0].Mallocs += 5000 // 0.5%
	if diffs := compareRuns("hunt", run(), near); len(diffs) != 0 {
		t.Errorf("runs within bounds differ: %v", diffs)
	}
	for name, tamper := range map[string]func(*childRun){
		"timing":   func(c *childRun) { c.Result.Metrics["wall_s"] = value{140, "s"} },
		"digest":   func(c *childRun) { c.Report.Prefix[0].Stable = "bb" },
		"issues":   func(c *childRun) { c.Report.Prefix[0].Issues = 6 },
		"segments": func(c *childRun) { c.Report.Prefix[0].Segments++ },
		"budget":   func(c *childRun) { c.Report.Prefix[0].Spent.Trials++ },
		"allocs":   func(c *childRun) { c.Report.Prefix[0].Mallocs += 20000 },
		"units":    func(c *childRun) { c.Report.Prefix = nil },
	} {
		b := run()
		tamper(&b)
		if diffs := compareRuns("hunt", run(), b); len(diffs) == 0 {
			t.Errorf("%s: tampered run compared equal", name)
		}
	}
}
