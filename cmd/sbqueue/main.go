// Command sbqueue is the coordinator of a distributed Snowboard run
// (§4.4.1's lightweight distributed queue): it builds the corpus, profiles
// it, identifies and clusters PMCs, enqueues the generated concurrent
// tests on a TCP queue, and folds the outcomes sbexec workers report into
// the report a local run of the same tests would have produced.
//
// Usage:
//
//	sbqueue [-addr 127.0.0.1:7070] [-version 5.12-rc3] [-method S-INS-PAIR]
//	        [-seed 1] [-fuzz 400] [-corpus 120] [-tests 200] [-workers 0]
//	        [-state dir] [-lease 30s] [-retries 3] [-wait 30s]
//	        [-http :8080] [-progress 10s] [-watch]
//
// A job carries one concurrent test and the exploration seed `snowboard
// -seed` would have used for it; a result carries the test's whole outcome
// (issues, the trial each surfaced on, a crashing trial's replayable
// state). Jobs are delivered at-least-once: a worker leases a job for
// -lease and acks it after reporting; a crashed or preempted worker's lease
// expires and the job is redelivered (up to -retries attempts) instead of
// being silently lost. Jobs that exhaust their attempts land on the
// dead-letter list, dumped with the final summary — a poisoned job can
// neither vanish nor retry forever. The first result of each job is folded,
// in job order, with the fold local execution uses (a redelivered job's
// copies are byte-identical), and crash-level findings are triaged.
//
// With -state, the local stages resume from the content-addressed artifact
// store rooted there, minimized SBRB repro bundles are kept in it (replay
// with sbrepro -state), and jobs go on the wire *by reference* — a corpus
// digest plus two pair indices instead of two inline programs — so workers
// started with the same -state (a shared directory) resolve programs from
// the store and the wire format stays a few dozen bytes per job.
//
// Operational chatter goes to stderr; stdout gets the final summary: the
// delivery accounting, then the issue table as `snowboard -v` prints it
// (Table 2 id, test index, trial, minimized bundle). With -http, the live
// introspection server exposes the queue's per-op counters, depth and
// lease-age histogram, flight-recorder events (/events), and the campaign
// coverage time-series (/coverage) alongside the pipeline metrics. With
// -watch, a live terminal dashboard on stderr shows queue state, lease
// ages, exec throughput and latency percentiles, coverage growth, and the
// tail of the flight recorder.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"snowboard"
	"snowboard/internal/obs"
	"snowboard/internal/queue"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "listen address")
		version  = flag.String("version", string(snowboard.V5_12_RC3), "simulated kernel version")
		method   = flag.String("method", "S-INS-PAIR", "generation method")
		seed     = flag.Int64("seed", 1, "deterministic seed")
		fuzzN    = flag.Int("fuzz", 400, "sequential fuzzing executions")
		corpusN  = flag.Int("corpus", 120, "corpus size cap")
		tests    = flag.Int("tests", 200, "concurrent tests to enqueue")
		workers  = flag.Int("workers", 0, "parallel worker goroutines for the local stages (0 = one per CPU)")
		stateDir = flag.String("state", "", "artifact store directory: resume local stages from it and enqueue jobs by corpus digest")
		lease    = flag.Duration("lease", 30*time.Second, "worker lease timeout before an unacked job is redelivered")
		retries  = flag.Int("retries", 3, "delivery attempts per job before it is dead-lettered")
		wait     = flag.Duration("wait", 30*time.Second, "how long to wait for outstanding leases to settle after the queue drains")
		httpAddr = flag.String("http", "", "serve live introspection (/metrics, /progress, /events, /coverage, /campaign, /debug/pprof) on this address")
		progress = flag.Duration("progress", 10*time.Second, "interval between one-line progress reports on stderr (0 disables)")
		watch    = flag.Bool("watch", false, "render a live terminal dashboard on stderr (suppresses -progress)")
	)
	flag.Parse()
	diag := obs.Diag
	diag.SetPrefix("sbqueue")
	if *watch {
		*progress = 0
	}
	stopSampler := obs.StartSampler(time.Second)
	defer stopSampler()

	if *httpAddr != "" {
		srv, err := obs.StartHTTP(*httpAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		diag.Printf("introspection listening on http://%s", srv.Addr())
	}
	stopProgress := obs.StartProgress(*progress, diag)
	defer stopProgress()

	kver, err := snowboard.ParseVersion(*version)
	if err != nil {
		log.Fatal(err)
	}
	opts := snowboard.DefaultOptions()
	opts.Version = kver
	opts.Seed = *seed
	opts.FuzzBudget = *fuzzN
	opts.CorpusCap = *corpusN
	opts.Workers = *workers
	opts.StateDir = *stateDir
	m, ok := snowboard.MethodByName(*method)
	if !ok {
		log.Fatalf("unknown method %q", *method)
	}
	opts.Method = m

	p, err := snowboard.OpenPipeline(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()
	r := p.NewReport()
	p.BuildCorpus(r)
	if err := p.ProfileAll(r); err != nil {
		log.Fatal(err)
	}
	p.IdentifyPMCs(r)
	cts := p.GenerateTests(r, *tests)
	diag.Printf("corpus=%d pmcs=%d generated=%d concurrent tests", r.CorpusSize, r.DistinctPMCs, len(cts))

	q := queue.NewWithOptions(queue.Options{
		Name:         "coordinator",
		LeaseTimeout: *lease,
		MaxAttempts:  *retries,
	})
	srv, err := queue.Serve(q, *addr)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	// With a store attached, jobs reference the persisted corpus artifact by
	// digest instead of inlining both programs, and workers need the store.
	hint := ""
	if corpusDigest, _, _ := p.ArtifactDigests(); corpusDigest != "" {
		hint = " -state " + *stateDir
	}
	diag.Printf("queue listening on %s — start workers with: sbexec -addr %s -version %s%s",
		srv.Addr(), srv.Addr(), *version, hint)

	stopWatch := func() {}
	if *watch {
		stopWatch = startWatch(q)
	}

	if err := p.PushTests(q, cts, obs.CurrentTrace()); err != nil {
		log.Fatal(err)
	}

	// Wait for every job to settle: acked or dead-lettered. Pending jobs
	// wait indefinitely (workers may not have started yet); the lease
	// reaper turns abandoned leases back into pending jobs automatically,
	// so once the pending list is empty, stragglers get *wait to settle
	// (covering a worker that extends a lease forever) before we report
	// with what we have.
	var settleBy time.Time
	for {
		st := q.Stats()
		if st.Pending == 0 && st.Leased == 0 {
			break
		}
		if st.Pending == 0 {
			if settleBy.IsZero() {
				settleBy = time.Now().Add(*wait)
			} else if time.Now().After(settleBy) {
				diag.Printf("warning: %d leases never settled within %v; reporting anyway", st.Leased, *wait)
				break
			}
		} else {
			settleBy = time.Time{}
		}
		time.Sleep(200 * time.Millisecond)
	}

	stopWatch()

	// Fold as local execution would have, triage, surface the dead letters.
	st, dead := q.Stats(), q.DeadLetters()
	if err := p.FoldResults(r, cts, q.Results(), dead); err != nil {
		log.Fatal(err)
	}
	sum := r.Distributed
	fmt.Printf("%d/%d jobs reported (%d redeliveries, %d duplicate reports folded), %d exercised their PMC channel\n",
		sum.Reported, sum.Expected, st.Redelivered, sum.Duplicates, sum.Exercised)
	fmt.Printf("issues found (Table 2 numbers): %v\n", sum.BugIDs)
	fmt.Print(r.IssueTable())
	if len(sum.DeadJobs) > 0 {
		fmt.Printf("dead-lettered jobs after %d attempts: %v\n", *retries, sum.DeadJobs)
		for _, d := range dead {
			diag.Printf("dead job %d (%d attempts): %s", d.Job.ID, d.Attempts, d.Reason)
		}
	}
	if sum.Lost() {
		diag.Printf("warning: jobs neither reported nor dead-lettered: %v", sum.Missing)
	}
}

// isTerminal reports whether f is attached to a character device (a real
// terminal), as opposed to a pipe or a redirected file.
func isTerminal(f *os.File) bool {
	fi, err := f.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// startWatch renders the live dashboard to stderr once per second until the
// returned stop function is called. On a real terminal each frame repaints
// in place with ANSI cursor-home/clear-screen; when stderr is a pipe or a
// log file, frames degrade to plain appending lines instead of spraying
// escape bytes into the capture.
func startWatch(q *queue.Queue) (stop func()) {
	ansi := isTerminal(os.Stderr)
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fmt.Fprint(os.Stderr, renderWatch(q, ansi))
			}
		}
	}()
	return func() { close(done) }
}

// renderWatch builds one dashboard frame. With ansi, the frame is the
// full-screen dashboard prefixed by cursor-home + clear-screen so it
// repaints in place; without, it is a single appending status line safe
// for pipes and log files.
func renderWatch(q *queue.Queue, ansi bool) string {
	if !ansi {
		return renderWatchLine(q)
	}
	st := q.Stats()
	pr := obs.ProgressNow()
	cov := obs.CoverageNow()
	var b strings.Builder
	b.WriteString("\x1b[H\x1b[2J") // cursor home + clear screen
	trace := "-"
	if c := obs.CurrentCampaign(); c != nil {
		trace = c.Trace
	}
	fmt.Fprintf(&b, "snowboard campaign %s  up %.0fs\n", trace, pr.UptimeSec)
	fmt.Fprintf(&b, "queue   pending=%d leased=%d done=%d dead=%d redelivered=%d oldest-lease=%s\n",
		st.Pending, st.Leased, st.Done, st.DeadLettered, st.Redelivered,
		st.OldestLease.Truncate(time.Millisecond))
	fmt.Fprintf(&b, "exec    %.1f tests/min  p50=%.2fms  p99=%.2fms  trials=%d  exercised=%d\n",
		pr.ExecPerMin, pr.ExecP50Ms, pr.ExecP99Ms, pr.TrialsRun, pr.TestsExercised)
	var pairs, segments int64
	if n := len(cov.Samples); n > 0 {
		pairs = cov.Samples[n-1].CoverPairs
		segments = cov.Samples[n-1].CoverSegments
	}
	fmt.Fprintf(&b, "cover   pairs=%d  segs=%d  +%.1f pairs/min  +%.1f segs/min  +%.1f edges/min  plateaued=%t\n",
		pairs, segments, cov.Rate.NewPairsPerMin, cov.Rate.NewSegmentsPerMin, cov.Rate.NewEdgesPerMin, cov.Plateaued)
	fmt.Fprintf(&b, "issues  %d found  %d detect reports\n", pr.IssuesFound, pr.DetectReports)
	evs := obs.Events.Since(0)
	minimized, lastBundle := 0, ""
	for _, ev := range evs {
		if ev.Kind == obs.EvTriageMinimized {
			minimized++
			if s, ok := ev.Attrs["bundle"].(string); ok {
				lastBundle = s
			}
		}
	}
	if minimized > 0 {
		fmt.Fprintf(&b, "triage  %d minimized  last bundle %s\n", minimized, lastBundle)
	}
	if n := len(evs); n > 6 {
		evs = evs[n-6:]
	}
	b.WriteString("events\n")
	for _, ev := range evs {
		fmt.Fprintf(&b, "  #%-5d %s  %s\n", ev.Seq, ev.T.Format("15:04:05"), ev.Kind)
	}
	return b.String()
}

// renderWatchLine is the non-TTY dashboard frame: the same vitals
// compressed into one plain line that appends cleanly to a pipe or file.
func renderWatchLine(q *queue.Queue) string {
	st := q.Stats()
	pr := obs.ProgressNow()
	cov := obs.CoverageNow()
	var pairs, segments int64
	if n := len(cov.Samples); n > 0 {
		pairs = cov.Samples[n-1].CoverPairs
		segments = cov.Samples[n-1].CoverSegments
	}
	return fmt.Sprintf("watch pending=%d leased=%d done=%d dead=%d exec=%.1f/min pairs=%d segs=%d issues=%d\n",
		st.Pending, st.Leased, st.Done, st.DeadLettered, pr.ExecPerMin, pairs, segments, pr.IssuesFound)
}
