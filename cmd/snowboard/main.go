// Command snowboard runs the full testing pipeline — sequential fuzzing,
// profiling, PMC identification, clustering, and PMC-hinted concurrent
// exploration — against the simulated kernel, and prints a Table 3-style
// report.
//
// Usage:
//
//	snowboard [-mode full|compare] [-version 5.12-rc3] [-method S-INS-PAIR]
//	          [-seed 1] [-fuzz 400] [-corpus 120] [-tests 60] [-trials 16]
//	          [-feedback] [-rounds 4] [-workers 0] [-json] [-http :8080]
//	          [-progress 10s] [-trace spans.jsonl] [-events events.jsonl] [-v]
//
// With -mode compare, every generation method of the paper's Table 3 runs
// on the same profiled corpus and one row is printed per method.
//
// Only the report is written to stdout (plain text, or JSON with -json);
// every progress and diagnostic line goes to stderr. With -http, a live
// introspection server exposes /metrics (Prometheus text), /progress
// (JSON), /debug/vars (expvar), and /debug/pprof/ for the duration of the
// run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"snowboard"
	"snowboard/internal/obs"
)

func main() {
	var (
		mode     = flag.String("mode", "full", "run mode: full (one method) or compare (all Table 3 methods)")
		version  = flag.String("version", string(snowboard.V5_12_RC3), "simulated kernel version (5.3.10 or 5.12-rc3)")
		method   = flag.String("method", "S-INS-PAIR", "generation method (Table 1 strategy, 'Random S-INS-PAIR', 'Random pairing', 'Duplicate pairing')")
		seed     = flag.Int64("seed", 1, "deterministic seed")
		fuzzN    = flag.Int("fuzz", 400, "sequential fuzzing executions")
		corpusN  = flag.Int("corpus", 120, "corpus size cap")
		tests    = flag.Int("tests", 60, "concurrent tests to execute")
		trials   = flag.Int("trials", 16, "interleaving trials per concurrent test")
		workers  = flag.Int("workers", 0, "parallel worker goroutines per stage (0 = one per CPU); results are identical for any value")
		feedback = flag.Bool("feedback", false, "close the loop: allocate the test budget in rounds across PMC clusters by recent interleaving-segment yield, composing independent PMCs and mutating segment-discovering schedules")
		rounds   = flag.Int("rounds", 0, "budget-allocation rounds for -feedback (0 = default 4)")
		stateDir = flag.String("state", "", "artifact store directory: persist every stage's output (replayable SBRB bundles included; see sbrepro) and resume from unchanged stages on re-run")
		jsonOut  = flag.Bool("json", false, "emit the final report as JSON on stdout")
		httpAddr = flag.String("http", "", "serve live introspection (/metrics, /progress, /debug/vars, /debug/pprof) on this address")
		progress = flag.Duration("progress", 10*time.Second, "interval between one-line progress reports on stderr (0 disables)")
		traceOut = flag.String("trace", "", "append JSONL span events to this file")
		events   = flag.String("events", "", "append flight-recorder events to this file as JSONL")
		verbose  = flag.Bool("v", false, "verbose per-issue output")
	)
	flag.Parse()
	diag := obs.Diag

	kver, err := snowboard.ParseVersion(*version)
	if err != nil {
		fmt.Fprintf(os.Stderr, "snowboard: %v\n", err)
		os.Exit(2)
	}
	opts := snowboard.DefaultOptions()
	opts.Version = kver
	opts.Seed = *seed
	opts.FuzzBudget = *fuzzN
	opts.CorpusCap = *corpusN
	opts.TestBudget = *tests
	opts.Trials = *trials
	opts.Workers = *workers
	opts.StateDir = *stateDir
	opts.Feedback = *feedback
	opts.FeedbackRounds = *rounds

	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "snowboard: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		obs.SetTraceSink(f)
		defer obs.SetTraceSink(nil)
	}
	if *events != "" {
		f, err := os.OpenFile(*events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "snowboard: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		obs.Events.SetSink(f)
		defer obs.Events.SetSink(nil)
	}
	stopSampler := obs.StartSampler(time.Second)
	defer stopSampler()
	if *httpAddr != "" {
		srv, err := obs.StartHTTP(*httpAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "snowboard: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		diag.Printf("introspection listening on http://%s (/metrics /progress /events /coverage /campaign /debug/vars /debug/pprof)", srv.Addr())
	}
	stopProgress := obs.StartProgress(*progress, diag)
	defer stopProgress()

	if *mode == "compare" {
		runComparison(opts, *verbose, *jsonOut)
		return
	}
	if *mode != "full" {
		fmt.Fprintf(os.Stderr, "snowboard: unknown mode %q (full or compare)\n", *mode)
		os.Exit(2)
	}

	m, ok := snowboard.MethodByName(*method)
	if !ok {
		fmt.Fprintf(os.Stderr, "snowboard: unknown method %q; known methods:\n", *method)
		for _, mm := range snowboard.Methods() {
			fmt.Fprintf(os.Stderr, "  %s\n", mm.Name)
		}
		os.Exit(2)
	}
	opts.Method = m

	report, err := snowboard.Run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "snowboard: %v\n", err)
		os.Exit(1)
	}
	if *jsonOut {
		printJSON(report)
	} else {
		printReport(report, *stateDir, *verbose)
	}
}

// jsonReport augments the registry-backed Report with its derived figures
// for machine consumers.
type jsonReport struct {
	*snowboard.Report
	BugIDs     []int   `json:"bug_ids"`
	Accuracy   float64 `json:"accuracy"`
	ExecPerMin float64 `json:"exec_per_min"`
}

func wrapJSON(r *snowboard.Report) jsonReport {
	return jsonReport{Report: r, BugIDs: r.BugIDs(), Accuracy: r.Accuracy(), ExecPerMin: r.ExecPerMin()}
}

func printJSON(r *snowboard.Report) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(wrapJSON(r)); err != nil {
		fmt.Fprintf(os.Stderr, "snowboard: encoding report: %v\n", err)
		os.Exit(1)
	}
}

// printReport renders the Table 3-style text report. stateDir, when set, is
// where the run kept its replayable SBRB bundles.
func printReport(r *snowboard.Report, stateDir string, verbose bool) {
	fmt.Printf("kernel %s, method %s\n", r.Version, r.Method)
	fmt.Printf("  corpus: %d tests (%d fuzz executions in %v), %d shared accesses profiled in %v\n",
		r.CorpusSize, r.FuzzExecutions, r.FuzzTime, r.ProfiledAccesses, r.ProfileTime)
	fmt.Printf("  PMCs: %d distinct keys / %d combinations identified in %v\n",
		r.DistinctPMCs, r.PMCCombinations, r.IdentifyTime)
	fmt.Printf("  clusters (exemplar PMCs): %d\n", r.ExemplarPMCs)
	fmt.Printf("  executed: %d concurrent tests (%d trials, %d switches) in %v (%.1f exec/min)\n",
		r.TestedTests, r.TrialsRun, r.Switches, r.ExecTime, r.ExecPerMin())
	fmt.Printf("  PMC accuracy: %d/%d = %.0f%% of hinted tests exercised their channel\n",
		r.Exercised, r.TestedPMCs, 100*r.Accuracy())
	fmt.Printf("  concurrency coverage: %d alias instruction pairs, %d interleaving segments\n",
		r.CoverPairs, r.CoverSegments)
	if r.FeedbackRounds > 0 {
		fmt.Printf("  feedback: %d rounds, %d composed tests\n", r.FeedbackRounds, r.ComposedTests)
	}
	ids := r.BugIDs()
	fmt.Printf("  issues found: %v\n", ids)
	minimized := 0
	for _, id := range ids {
		if r.Issues[id].Triage != nil {
			minimized++
		}
	}
	switch {
	case minimized > 0 && stateDir != "":
		fmt.Printf("  triage: %d finding(s) minimized into repro bundles (replay with: sbrepro -state %s -min <digest>)\n", minimized, stateDir)
	case minimized > 0:
		fmt.Printf("  triage: %d finding(s) minimized; run with -state to keep replayable bundles\n", minimized)
	}
	if verbose {
		fmt.Print(r.IssueTable())
	}
}

func runComparison(base snowboard.Options, verbose, jsonOut bool) {
	if !jsonOut {
		fmt.Printf("Table 3 comparison, kernel %s, %d tests x %d trials per method\n\n",
			base.Version, base.TestBudget, base.Trials)
		fmt.Printf("%-20s %12s %10s %10s  %s\n", "Method", "Exemplars", "Tested", "Exercised", "Issues (test# found)")
	}
	var reports []jsonReport
	for _, m := range snowboard.Methods() {
		opts := base
		opts.Method = m
		r, err := snowboard.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "snowboard: %s: %v\n", m.Name, err)
			continue
		}
		if jsonOut {
			reports = append(reports, wrapJSON(r))
			continue
		}
		fmt.Printf("%-20s %12d %10d %10d  %s\n", r.Method, r.ExemplarPMCs, r.TestedTests, r.Exercised, issueSummary(r))
		if verbose {
			fmt.Print(r.IssueTable())
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintf(os.Stderr, "snowboard: encoding reports: %v\n", err)
			os.Exit(1)
		}
	}
}

func issueSummary(r *snowboard.Report) string {
	s := ""
	for i, id := range r.BugIDs() {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("#%d(%d)", id, r.Issues[id].TestIndex)
	}
	if s == "" {
		return "-"
	}
	return s
}
