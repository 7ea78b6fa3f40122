// Package core orchestrates the four-stage Snowboard pipeline of Figure 2:
// sequential test generation and profiling (§4.1), PMC identification
// (§4.2), PMC selection via clustering (§4.3), and concurrent test
// execution with PMC scheduling hints (§4.4). It also implements the
// baseline generation methods of Table 3 (Random S-INS-PAIR, Random
// pairing, Duplicate pairing) and produces per-method reports in that
// table's shape.
package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"snowboard/internal/cluster"
	"snowboard/internal/detect"
	"snowboard/internal/kernel"
	"snowboard/internal/obs"
	"snowboard/internal/pmc"
	"snowboard/internal/sched"
)

// MethodKind distinguishes PMC-guided generation from the baselines.
type MethodKind uint8

// Method kinds.
const (
	// MethodPMC generates tests from clustered PMC exemplars.
	MethodPMC MethodKind = iota
	// MethodRandomPairing pairs two random corpus tests with no hint.
	MethodRandomPairing
	// MethodDuplicatePairing pairs a random corpus test with itself.
	MethodDuplicatePairing
)

// Method is one concurrent test generation method — a Table 3 row.
type Method struct {
	Name     string
	Kind     MethodKind
	Strategy cluster.Strategy // valid when Kind == MethodPMC
	Order    cluster.Order    // cluster ordering for MethodPMC
}

// Methods lists the eleven generation methods evaluated in Table 3.
func Methods() []Method {
	var out []Method
	for _, s := range cluster.Strategies {
		out = append(out, Method{Name: s.Name, Kind: MethodPMC, Strategy: s, Order: cluster.UncommonFirst})
	}
	out = append(out,
		Method{Name: "Random S-INS-PAIR", Kind: MethodPMC, Strategy: cluster.SInsPair, Order: cluster.RandomOrder},
		Method{Name: "Random pairing", Kind: MethodRandomPairing},
		Method{Name: "Duplicate pairing", Kind: MethodDuplicatePairing},
	)
	return out
}

// MethodByName resolves a method.
func MethodByName(name string) (Method, bool) {
	for _, m := range Methods() {
		if m.Name == name {
			return m, true
		}
	}
	return Method{}, false
}

// Options configures a pipeline run.
type Options struct {
	Version kernel.Version
	Seed    int64

	// Stage 1: sequential test generation and profiling.
	FuzzBudget int // sequential executions in the fuzzing campaign
	CorpusCap  int // stop the campaign once this many tests are selected (0 = no cap)

	// Stage 2: PMC identification.
	PMC pmc.Options

	// Stage 3/4: selection and execution.
	Method     Method
	TestBudget int // concurrent tests to execute
	Trials     int // interleaving trials per concurrent test
	Detect     detect.Options

	// Feedback runs stages 3 and 4 interleaved (RunFeedback): instead of
	// one GenerateTests pass that tests each cluster of the uncommon-first
	// ranking at most once, the test budget is spent in rounds that keep
	// walking the ranking past its end, composing independent PMCs into
	// shared tests. Only meaningful for MethodPMC.
	Feedback bool
	// FeedbackRounds is the number of rounds a feedback run splits
	// TestBudget into (0 = default 4): each is one batch, with its own
	// incidental-adoption list and, with a store, its own checkpoint.
	FeedbackRounds int

	// Workers is the goroutine fan-out for every stage: fuzzing batches,
	// per-test profiling, reader-sharded PMC identification, and
	// concurrent-test exploration. 0 means one worker per CPU
	// (GOMAXPROCS). Reports are bit-identical for any value — per-unit
	// seeds are derived from (Seed, stage, unit index), never drawn from
	// a shared rng.
	Workers int

	// StateDir, when non-empty, roots a content-addressed artifact store
	// that memoizes the corpus and the report: re-running with equivalent
	// options returns the stored report, and several methods (Table 3
	// comparisons) share one stored corpus. Profiles and PMCs are
	// recomputed, which costs less than reading them back. Like Workers,
	// StateDir never changes what a run computes — only whether stages
	// execute or load.
	StateDir string
}

// DefaultOptions returns a laptop-scale configuration.
func DefaultOptions() Options {
	m, _ := MethodByName("S-INS-PAIR")
	return Options{
		Version:    kernel.V5_12_RC3,
		Seed:       1,
		FuzzBudget: 400,
		CorpusCap:  120,
		PMC:        pmc.DefaultOptions(),
		Method:     m,
		TestBudget: 60,
		Trials:     16,
		Detect:     detect.DefaultOptions(),
	}
}

// IssueRecord tracks when and how an issue was first found.
type IssueRecord struct {
	Issue     detect.Issue
	TestIndex int // how many concurrent tests had executed when it surfaced
	Trial     int // trial within that test
	Count     int // concurrent tests that re-observed the issue (§5.2's frequency ranking)

	// Repro, when non-nil, pins the bug-exposing trial for deterministic
	// replay (crash-level findings only; see sched.Replay).
	Repro *sched.ReproState
	// Test is the concurrent test that exposed the issue.
	Test sched.ConcurrentTest

	// Triage, when non-nil, is the post-detect triage outcome: the stable
	// crash signature, the content digest of the minimized SBRB repro
	// bundle (`sbrepro -state <dir> -min <digest>` replays it), and the
	// minimization statistics.
	Triage *TriageSummary `json:",omitempty"`
}

// Report is the outcome of one pipeline run — one Table 3 row plus the
// §5.3.2 accuracy counters and §5.4 stage timings. Stage durations are
// measured by the obs stage spans (the same measurements that feed the
// "stage.*.duration_ns" histograms in the process-wide registry), so the
// report is a per-run view over the observability layer; Metrics, when
// captured, freezes the full registry alongside it.
type Report struct {
	Method  string
	Version kernel.Version
	Workers int // resolved worker count the run executed with

	// Stage 1.
	CorpusSize       int
	FuzzExecutions   int
	FuzzTime         time.Duration
	ProfiledAccesses int
	ProfileTime      time.Duration

	// Stage 2.
	DistinctPMCs    int
	PMCCombinations int64
	IdentifyTime    time.Duration

	// Stage 3.
	ExemplarPMCs int // clusters under the strategy (0 for baselines)
	ClusterTime  time.Duration

	// Stage 4.
	TestedPMCs     int // hinted concurrent tests executed
	TestedTests    int // total concurrent tests executed (== TestedPMCs for PMC methods)
	Exercised      int // hinted tests whose channel actually occurred (§5.3.2)
	TrialsRun      int
	Switches       int
	Steps          int
	CoverPairs     int // distinct alias instruction pairs covered over the run, every batch and round (Krace metric)
	CoverSegments  int // distinct interleaving segments covered over the run (2-grams of communications)
	ExecTime       time.Duration
	GeneratedTests int // tests generated (can exceed executed when deduplicated)

	// Feedback-loop counters (zero unless Options.Feedback).
	FeedbackRounds int `json:",omitempty"` // feedback rounds executed
	ComposedTests  int `json:",omitempty"` // tests carrying coalesced extra PMC hints

	// Findings.
	Issues  map[int]IssueRecord // Table 2 bug id -> first-discovery record
	Unknown []detect.Issue      // findings not matching Table 2

	// Distributed, when the run fanned out over the queue, is the
	// exactly-once delivery accounting of worker results — including the
	// dead-letter list, so a job that exhausted its delivery attempts is
	// surfaced in the final report, not silently dropped (see batch.finish).
	Distributed *DistSummary `json:",omitempty"`

	// Notes records degraded-mode decisions (e.g. generation skipped on an
	// empty corpus) so machine consumers see them alongside the counters.
	Notes []string `json:",omitempty"`

	// Metrics is the process-wide obs registry frozen when the run
	// finished (set by Run / CaptureMetrics); nil if never captured.
	Metrics *obs.Snapshot `json:",omitempty"`
}

// CaptureMetrics freezes the current state of the process-wide metrics
// registry into the report.
func (r *Report) CaptureMetrics() {
	snap := obs.Default.Snapshot()
	r.Metrics = &snap
}

// ExecPerMin returns concurrent-test execution throughput over stage-4
// time — the paper's §5.4 exec/min metric (193.8 vs 170.3 in Table 4).
func (r *Report) ExecPerMin() float64 {
	if r.ExecTime <= 0 || r.TestedTests == 0 {
		return 0
	}
	return float64(r.TestedTests) / r.ExecTime.Minutes()
}

// Accuracy returns the fraction of hinted tests that exercised their
// channel (the paper's PMC accuracy / precision measure, §5.3.2).
func (r *Report) Accuracy() float64 {
	if r.TestedPMCs == 0 {
		return 0
	}
	return float64(r.Exercised) / float64(r.TestedPMCs)
}

// BugIDs returns the sorted Table 2 ids found.
func (r *Report) BugIDs() []int {
	out := make([]int, 0, len(r.Issues))
	for id := range r.Issues {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// IssueTable renders the findings one per line — Table 2 id, tests run so
// far, trial, and triage's minimized bundle — as `snowboard -v` prints them.
func (r *Report) IssueTable() string {
	var b strings.Builder
	for _, id := range r.BugIDs() {
		rec := r.Issues[id]
		fmt.Fprintf(&b, "    #%-2d after %3d tests (trial %2d): [%s] %s\n",
			id, rec.TestIndex, rec.Trial, rec.Issue.Kind, rec.Issue.Desc)
		if t := rec.Triage; t != nil {
			st := t.Stats
			fmt.Fprintf(&b, "         minimized: %s  bundle %s\n", t.Signature, t.Bundle)
			fmt.Fprintf(&b, "         schedule %d->%d decisions, syscalls %d+%d -> %d+%d (%d replays)\n",
				st.DecisionsOrig, st.DecisionsMin,
				st.WriterCallsOrig, st.ReaderCallsOrig, st.WriterCallsMin, st.ReaderCallsMin,
				st.Replays)
		}
	}
	for _, u := range r.Unknown {
		fmt.Fprintf(&b, "    UNCLASSIFIED: [%s] %s\n", u.Kind, u.Desc)
	}
	return b.String()
}

// String renders the report as a Table 3-style row.
func (r *Report) String() string {
	return fmt.Sprintf("%-18s exemplars=%-8d tested=%-6d exercised=%-6d issues=%v",
		r.Method, r.ExemplarPMCs, r.TestedTests, r.Exercised, r.BugIDs())
}
