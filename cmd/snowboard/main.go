// Command snowboard runs the full testing pipeline — sequential fuzzing,
// profiling, PMC identification, clustering, and PMC-hinted concurrent
// exploration — against the simulated kernel, and prints a Table 3-style
// report.
//
// Usage:
//
//	snowboard [-mode full|compare] [-version 5.12-rc3] [-method S-INS-PAIR]
//	          [-seed 1] [-fuzz 400] [-corpus 120] [-tests 60] [-trials 16]
//	          [-feedback] [-rounds 4] [-workers 0] [-state dir]
//	          [-listen 127.0.0.1:7070] [-json] [-http :8080]
//	          [-progress 10s] [-events events.jsonl] [-v]
//
// With -mode compare, every generation method of the paper's Table 3 runs
// on the same profiled corpus and one row is printed per method.
//
// With -listen, snowboard coordinates a distributed run (§4.4.1): the
// spec runs as one campaign — the core.Campaign sbd hosts — and once its
// first batch is pushed, its queue is served on the address. The log line
// names the command that joins it, `sbexec -addr <addr> -queue
// campaign.<id>`; a job carries everything its outcome depends on, and the
// campaign's own executor drains the queue beside any joined workers, so
// the report is the one snowboard prints without -listen. Delivery is
// at-least-once (a 30s lease, 3 attempts, then the job is dead-lettered
// and listed). With -state, the campaign's report is memoized there too,
// and `sbd -state` on the same directory lists it. The text summary is the
// delivery accounting and the issue table -v prints.
//
// Only the report is written to stdout (plain text, or JSON with -json);
// every progress and diagnostic line goes to stderr. With -http, a live
// introspection server exposes /metrics (Prometheus text), /progress
// (JSON), /events (the flight recorder), /coverage (the time-series),
// /campaign, and /debug/pprof/ for the duration of the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"snowboard"
	"snowboard/internal/core"
	"snowboard/internal/obs"
	"snowboard/internal/queue"
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
		feedback = flag.Bool("feedback", false, "close the loop: allocate the test budget in rounds across PMC clusters by recent interleaving-segment yield, composing independent PMCs into shared tests")
		rounds   = flag.Int("rounds", 0, "budget-allocation rounds for -feedback (0 = default 4)")
		stateDir = flag.String("state", "", "artifact store directory: persist the corpus and the report (replayable SBRB bundles included; see sbrepro) and resume from them on re-run; profiles and PMCs are always recomputed")
		listen   = flag.String("listen", "", "run as a distributed campaign and serve its queue on this address for sbexec workers to join (not with -mode compare)")
		jsonOut  = flag.Bool("json", false, "emit the final report as JSON on stdout")
		httpAddr = flag.String("http", "", "serve live introspection (/metrics, /progress, /events, /coverage, /campaign, /debug/pprof) on this address")
		progress = flag.Duration("progress", 10*time.Second, "interval between one-line progress reports on stderr (0 disables)")
		events   = flag.String("events", "", "append flight-recorder events to this file as JSONL")
		verbose  = flag.Bool("v", false, "verbose per-issue output")
	)
	flag.Parse()

	kver, err := snowboard.ParseVersion(*version)
	if err != nil {
		fmt.Fprintf(os.Stderr, "snowboard: %v\n", err)
		os.Exit(2)
	}
	if *listen != "" && *mode == "compare" {
		fmt.Fprintln(os.Stderr, "snowboard: -listen coordinates one method's campaign, not -mode compare")
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

	stopObs, err := obs.StartCLI(*events, *httpAddr, *progress)
	if err != nil {
		fmt.Fprintf(os.Stderr, "snowboard: %v\n", err)
		os.Exit(1)
	}
	defer stopObs()

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

	if *listen != "" {
		spec := core.CampaignSpec{
			Version: string(kver), Method: m.Name, Seed: *seed,
			FuzzBudget: *fuzzN, CorpusCap: *corpusN, TestBudget: *tests, Trials: *trials,
			Workers: *workers, Feedback: *feedback, FeedbackRounds: *rounds,
		}
		if err := coordinate(spec, *stateDir, *listen, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "snowboard: %v\n", err)
			os.Exit(1)
		}
		return
	}
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

// coordinate runs spec as one campaign on a registry with the queue
// defaults, serves the campaign's queue on addr once its first batch is
// pushed, and prints the finished report: JSON, or the delivery summary.
func coordinate(spec core.CampaignSpec, stateDir, addr string, jsonOut bool) error {
	reg := queue.NewRegistry(queue.Options{})
	defer reg.Close()
	c, err := core.StartCampaign(spec, core.CampaignEnv{StateDir: stateDir, Registry: reg})
	if err != nil {
		return err
	}
	// A campaign that finishes first (a memoized rerun, or no tests)
	// serves nothing.
	st := c.Status()
	for st.Expected == 0 && !finished(st) {
		time.Sleep(10 * time.Millisecond)
		st = c.Status()
	}
	if !finished(st) {
		srv, err := queue.ServeRegistry(reg, addr, queue.ServerOptions{})
		if err != nil {
			return err
		}
		defer srv.Close()
		obs.Diag.Printf("%d jobs; queue listening on %s — join with: sbexec -addr %s -queue %s",
			st.Expected, srv.Addr(), srv.Addr(), c.QueueName())
	}
	r, err := c.Wait()
	if err != nil {
		return err
	}
	if jsonOut {
		printJSON(r)
	} else {
		printDelivery(r, reg.Get(c.QueueName()))
	}
	return nil
}

// finished reports whether the campaign has stopped running.
func finished(st core.CampaignStatus) bool {
	return st.State == core.CampaignDone || st.State == core.CampaignFailed
}

// printDelivery renders a coordinated campaign's summary: the delivery
// accounting, then the issue table as -v prints it (Table 2 id, test
// index, trial, minimized bundle), then any dead-lettered jobs. q is the
// campaign's queue, nil when the campaign pushed nothing; a report that
// pushed no batch has no Distributed and counts zero jobs.
func printDelivery(r *snowboard.Report, q *queue.Queue) {
	sum, redelivered := r.Distributed, 0
	if sum == nil {
		sum = &core.DistSummary{}
	}
	if q != nil {
		redelivered = q.Stats().Redelivered
	}
	fmt.Printf("%d/%d jobs reported (%d redeliveries, %d duplicate reports folded), %d exercised their PMC channel\n",
		sum.Reported, sum.Expected, redelivered, sum.Duplicates, sum.Exercised)
	fmt.Printf("issues found (Table 2 numbers): %v\n", r.BugIDs())
	fmt.Print(r.IssueTable())
	if len(sum.DeadJobs) > 0 {
		fmt.Printf("dead-lettered jobs after %d attempts: %v\n", queue.DefaultMaxAttempts, sum.DeadJobs)
		if q != nil {
			for _, d := range q.DeadLetters() {
				obs.Diag.Printf("dead job %d (%d attempts): %s", d.Job.ID, d.Attempts, d.Reason)
			}
		}
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
