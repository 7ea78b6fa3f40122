// Command snowboard runs the testing pipeline — sequential fuzzing,
// profiling, PMC identification, clustering, and PMC-hinted concurrent
// exploration — against the simulated kernel, and prints a Table 3-style
// report.
//
// Usage:
//
//	snowboard [-mode full|compare|profile] [-version 5.12-rc3]
//	          [-method S-INS-PAIR] [-seed 1] [-fuzz 400] [-corpus 120]
//	          [-tests 60] [-trials 16] [-feedback] [-rounds 4] [-workers 0]
//	          [-state dir] [-listen 127.0.0.1:7070] [-json] [-http :8080]
//	          [-progress 10s] [-events events.jsonl] [-v]
//
// The flags make one campaign spec (core.CampaignSpec), and every mode
// takes its options from it, so a spec is checked once, before anything
// runs: a bad version or method, a zero -seed or budget (a spec would read
// 0 as "the default"), a negative -rounds or -workers, or a budget or
// -workers past its core.Max* ceiling exits 2 with the same message in
// every mode, with or without -listen.
//
// With -mode compare, every generation method of the paper's Table 3 runs
// on the same profiled corpus and one row is printed per method.
//
// With -mode profile, only the first two stages run (§4.1–4.2): the corpus
// is built (or, with -state, loaded), every test is profiled and the PMCs
// identified, and their statistics are printed — the clusters per
// strategy and the hottest channels; -v adds every corpus program, -json
// prints the stage 1–2 report instead. Nothing is explored, so this is the
// cheap look at what the analysis sees before spending execution budget.
//
// With -listen, snowboard coordinates a distributed run (§4.4.1): the
// spec runs as one campaign — the core.Campaign sbd hosts — whose queue
// is served on the address from the start. The log line names the
// command that joins it, `sbexec -addr <addr> -queue campaign.<id>`; a job
// carries everything its outcome depends on, and the campaign's own
// executor drains the queue beside any joined workers, so the report is
// the one snowboard prints without -listen. Delivery is at-least-once (a
// 30s lease, 3 attempts, then the job is dead-lettered and listed). Once
// the campaign folds (at once on a memoized rerun), its queue is closed
// and served queueDrain longer, so a joined worker exits 0. With -state,
// the campaign's report is memoized there too, and `sbd -state` on the
// same directory lists it. The text summary is the delivery accounting
// and the issue table -v prints. -listen runs one method's campaign: it
// refuses -mode compare and -mode profile.
//
// With -state, every mode keeps the corpus in the store rooted there, so
// a profile run after a full run on the same directory (or the reverse)
// takes it from there instead of re-fuzzing; profiles and PMCs are always
// recomputed.
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
	"sort"
	"time"

	"snowboard"
	"snowboard/internal/cluster"
	"snowboard/internal/core"
	"snowboard/internal/obs"
	"snowboard/internal/queue"
)

func main() {
	var (
		mode     = flag.String("mode", "full", "run mode: full (one method), compare (all Table 3 methods) or profile (stages 1-2 statistics only)")
		version  = flag.String("version", string(snowboard.V5_12_RC3), "simulated kernel version (5.3.10 or 5.12-rc3)")
		method   = flag.String("method", "S-INS-PAIR", "generation method (Table 1 strategy, 'Random S-INS-PAIR', 'Random pairing', 'Duplicate pairing')")
		seed     = flag.Int64("seed", 1, "deterministic seed (nonzero)")
		fuzzN    = flag.Int("fuzz", 400, "sequential fuzzing executions")
		corpusN  = flag.Int("corpus", 120, "corpus size cap")
		tests    = flag.Int("tests", 60, "concurrent tests to execute")
		trials   = flag.Int("trials", 16, "interleaving trials per concurrent test")
		workers  = flag.Int("workers", 0, "parallel worker goroutines per stage (0 = one per CPU); results are identical for any value")
		feedback = flag.Bool("feedback", false, "spend -tests in rounds that keep walking the uncommon-first cluster order past its end, composing independent PMCs into shared tests (one-shot tests each cluster at most once)")
		rounds   = flag.Int("rounds", 0, "rounds for -feedback, one batch each (0 = default 4)")
		stateDir = flag.String("state", "", "artifact store directory: persist the corpus and the report (replayable SBRB bundles included; see sbrepro) and resume from them on re-run; profiles and PMCs are always recomputed")
		listen   = flag.String("listen", "", "run as a distributed campaign and serve its queue on this address for sbexec workers to join (-mode full only)")
		jsonOut  = flag.Bool("json", false, "emit the final report as JSON on stdout")
		httpAddr = flag.String("http", "", "serve live introspection (/metrics, /progress, /events, /coverage, /campaign, /debug/pprof) on this address")
		progress = flag.Duration("progress", 10*time.Second, "interval between one-line progress reports on stderr (0 disables)")
		events   = flag.String("events", "", "append flight-recorder events to this file as JSONL")
		verbose  = flag.Bool("v", false, "verbose output: the per-issue table (full, compare) or every corpus program (profile)")
	)
	flag.Parse()

	// A spec reads 0 as "the default", so a zero seed or budget would run
	// something other than what was asked.
	if *seed == 0 {
		usageError("-seed must be nonzero")
	}
	for _, b := range []struct {
		flag string
		n    int
	}{{"fuzz", *fuzzN}, {"corpus", *corpusN}, {"tests", *tests}, {"trials", *trials}} {
		if b.n <= 0 {
			usageError(fmt.Sprintf("-%s must be positive, got %d", b.flag, b.n))
		}
	}
	switch *mode {
	case "full", "compare", "profile":
	default:
		usageError(fmt.Sprintf("unknown mode %q (full, compare or profile)", *mode))
	}
	if *listen != "" && *mode != "full" {
		usageError(fmt.Sprintf("-listen coordinates one method's campaign, not -mode %s", *mode))
	}
	spec := core.CampaignSpec{
		Version: *version, Method: *method, Seed: *seed,
		FuzzBudget: *fuzzN, CorpusCap: *corpusN, TestBudget: *tests, Trials: *trials,
		Workers: *workers, Feedback: *feedback, FeedbackRounds: *rounds,
	}
	opts, err := spec.BuildOptions(*stateDir)
	if err != nil {
		msg := err.Error()
		if _, ok := snowboard.MethodByName(*method); !ok {
			msg += "; known methods:"
			for _, m := range snowboard.Methods() {
				msg += "\n  " + m.Name
			}
		}
		usageError(msg)
	}

	stopObs, err := obs.StartCLI(*events, *httpAddr, *progress)
	if err != nil {
		fail(err)
	}
	defer stopObs()

	switch {
	case *mode == "compare":
		runComparison(spec, *stateDir, *verbose, *jsonOut)
	case *mode == "profile":
		err = runProfile(opts, *verbose, *jsonOut)
	case *listen != "":
		err = coordinate(spec, *stateDir, *listen, *jsonOut)
	default:
		var r *snowboard.Report
		if r, err = snowboard.Run(opts); err == nil {
			if *jsonOut {
				printJSON(wrapJSON(r))
			} else {
				printReport(r, *stateDir, *verbose)
			}
		}
	}
	if err != nil {
		fail(err)
	}
}

// usageError reports a bad flag or spec and exits 2, before anything runs.
func usageError(msg string) {
	fmt.Fprintf(os.Stderr, "snowboard: %s\n", msg)
	os.Exit(2)
}

// fail reports a run that could not finish and exits 1.
func fail(err error) {
	fmt.Fprintf(os.Stderr, "snowboard: %v\n", err)
	os.Exit(1)
}

// coordinate runs spec as one campaign on a registry with the queue
// defaults, serves the campaign's queue on addr from admission, and
// prints the finished report: JSON, or the delivery summary.
func coordinate(spec core.CampaignSpec, stateDir, addr string, jsonOut bool) error {
	reg := queue.NewRegistry(queue.Options{})
	defer reg.Close()
	c, err := core.StartCampaign(spec, core.CampaignEnv{StateDir: stateDir, Registry: reg})
	if err != nil {
		return err
	}
	srv, err := queue.ServeRegistry(reg, addr, queue.ServerOptions{})
	if err != nil {
		return err
	}
	// The campaign closes its queue when it finishes. Serving on for a few
	// join polls lets a joined worker's next lease read ErrClosed and exit
	// 0; a closed listener would have it redial with backoff.
	defer func() {
		time.Sleep(queueDrain)
		srv.Close()
	}()
	obs.Diag.Printf("queue listening on %s — join with: sbexec -addr %s -queue %s", srv.Addr(), srv.Addr(), c.QueueName())
	r, err := c.Wait()
	if err != nil {
		return err
	}
	if jsonOut {
		printJSON(wrapJSON(r))
	} else {
		printDelivery(r, reg.Get(c.QueueName()))
	}
	return nil
}

// queueDrain is how long a coordinator keeps serving its campaign's closed
// queue once the report is printed.
const queueDrain = 5 * core.JoinPoll

// printDelivery renders a coordinated campaign's summary: the delivery
// accounting, then the issue table as -v prints it (Table 2 id, test
// index, trial, minimized bundle), then any dead-lettered jobs. q is the
// campaign's queue; a report that pushed no batch has no Distributed and
// counts zero jobs.
func printDelivery(r *snowboard.Report, q *queue.Queue) {
	sum := r.Distributed
	if sum == nil {
		sum = &core.DistSummary{}
	}
	fmt.Printf("%d/%d jobs reported (%d redeliveries, %d duplicate reports folded), %d exercised their PMC channel\n",
		sum.Reported, sum.Expected, q.Stats().Redelivered, sum.Duplicates, sum.Exercised)
	fmt.Printf("issues found (Table 2 numbers): %v\n", r.BugIDs())
	fmt.Print(r.IssueTable())
	if len(sum.DeadJobs) > 0 {
		fmt.Printf("dead-lettered jobs after %d attempts: %v\n", queue.DefaultMaxAttempts, sum.DeadJobs)
		for _, d := range q.DeadLetters() {
			obs.Diag.Printf("dead job %d (%d attempts): %s", d.Job.ID, d.Attempts, d.Reason)
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

// printJSON writes v, a jsonReport or several, to stdout.
func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
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

// runComparison runs spec once per Table 3 method, each on the same
// profiled corpus, and prints one row per method.
func runComparison(spec core.CampaignSpec, stateDir string, verbose, jsonOut bool) {
	if !jsonOut {
		fmt.Printf("Table 3 comparison, kernel %s, %d tests x %d trials per method\n\n",
			spec.Version, spec.TestBudget, spec.Trials)
		fmt.Printf("%-20s %12s %10s %10s  %s\n", "Method", "Exemplars", "Tested", "Exercised", "Issues (test# found)")
	}
	var reports []jsonReport
	for _, m := range snowboard.Methods() {
		spec.Method = m.Name
		opts, err := spec.BuildOptions(stateDir)
		var r *snowboard.Report
		if err == nil {
			r, err = snowboard.Run(opts)
		}
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
		printJSON(reports)
	}
}

// hottestChannels is how many S-CH clusters a profile run lists.
const hottestChannels = 10

// runProfile runs stages 1–2 — the corpus, its profiles and the PMCs they
// identify — and prints their statistics (every corpus program too when
// verbose), or the stage 1–2 report as JSON.
func runProfile(opts snowboard.Options, verbose, jsonOut bool) error {
	p, err := snowboard.OpenPipeline(opts)
	if err != nil {
		return err
	}
	defer p.Close()
	r := p.NewReport()
	p.BuildCorpus(r)
	if err := p.ProfileAll(r); err != nil {
		return err
	}
	p.IdentifyPMCs(r)
	if jsonOut {
		printJSON(wrapJSON(r))
		return nil
	}

	fmt.Printf("kernel %s, seed %d\n", opts.Version, opts.Seed)
	fmt.Printf("corpus: %d tests selected from %d executions\n", r.CorpusSize, r.FuzzExecutions)
	fmt.Printf("syscall histogram: %v\n", p.Corpus.SyscallHistogram())
	// A fuzz budget that admits nothing selects no tests; 0/0 would print NaN.
	fmt.Printf("profiling: %d shared accesses in %v (%.0f accesses/test)\n",
		r.ProfiledAccesses, r.ProfileTime, float64(r.ProfiledAccesses)/float64(max(r.CorpusSize, 1)))
	fmt.Printf("PMCs: %d distinct keys, %d combinations, identified in %v\n",
		r.DistinctPMCs, r.PMCCombinations, r.IdentifyTime)
	fmt.Println()

	fmt.Printf("%-16s %9s\n", "Strategy", "Clusters")
	for _, s := range snowboard.Strategies() {
		fmt.Printf("%-16s %9d\n", s.Name, len(cluster.Clusters(p.PMCs, s)))
	}

	// Hottest channels by pair combinations under S-CH.
	cs := cluster.Clusters(p.PMCs, cluster.SCh)
	sort.Slice(cs, func(i, j int) bool { return cs[i].Weight > cs[j].Weight })
	fmt.Printf("\nhottest %d channels (S-CH clusters by combination count):\n", hottestChannels)
	for _, c := range cs[:min(hottestChannels, len(cs))] {
		fmt.Printf("  %8d  %s -> %s\n", c.Weight, c.PMCs[0].Write.Ins.Name(), c.PMCs[0].Read.Ins.Name())
	}

	if verbose {
		fmt.Println("\ncorpus programs:")
		for i, prog := range p.Corpus.Progs {
			fmt.Printf("--- test %d ---\n%s", i, prog)
		}
	}
	return nil
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
