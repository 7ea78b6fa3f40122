// Command sbqueue is the coordinator of a distributed Snowboard run
// (§4.4.1's lightweight distributed queue): it runs one campaign — the
// same core.Campaign sbd hosts — and serves that campaign's queue on a TCP
// listener so sbexec workers on other machines can join its execution.
//
// Usage:
//
//	sbqueue [-addr 127.0.0.1:7070] [-version 5.12-rc3] [-method S-INS-PAIR]
//	        [-seed 1] [-fuzz 400] [-corpus 120] [-tests 200] [-workers 0]
//	        [-state dir] [-lease 30s] [-retries 3]
//	        [-http :8080] [-progress 10s]
//
// The campaign builds the corpus, profiles it, identifies and clusters
// PMCs, and pushes the generated concurrent tests onto its named queue.
// The listener opens once the jobs are pushed, and its log line names the
// queue to join: `sbexec -addr <addr> -queue campaign.<id>`, all a worker
// needs, since every job carries its programs, the campaign's kernel
// version and its trial budget. The coordinator's own executor drains the queue beside any joined workers,
// so a run needs no worker at all. Jobs are delivered at-least-once: a
// lease that expires unsettled (-lease) redelivers, up to -retries
// attempts, and a job that exhausts them is dead-lettered and listed in
// the summary. The first result of each job is folded, in job order, with
// the fold local execution uses, and crash-level findings are triaged. A
// job neither reported nor dead-lettered is an error.
//
// With -state, the local stages resume from the content-addressed artifact
// store rooted there, the campaign's manifest and finished report are
// memoized in it (a rerun returns that report, and `sbd -state` on the
// same directory lists the campaign), minimized SBRB repro bundles are
// kept in it (replay with sbrepro -state). The store stays the
// coordinator's: joined workers need no -state of their own.
//
// Operational chatter goes to stderr; stdout gets the final summary: the
// delivery accounting, then the issue table as `snowboard -v` prints it
// (Table 2 id, test index, trial, minimized bundle). With -http, live
// progress (/progress), the queue's counters and depth gauge (/metrics),
// flight-recorder events (/events) and coverage (/coverage) are served.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"snowboard"
	"snowboard/internal/core"
	"snowboard/internal/obs"
	"snowboard/internal/queue"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "listen address for workers joining the campaign's queue")
		version  = flag.String("version", string(snowboard.V5_12_RC3), "simulated kernel version")
		method   = flag.String("method", "S-INS-PAIR", "generation method")
		seed     = flag.Int64("seed", 1, "deterministic seed")
		fuzzN    = flag.Int("fuzz", 400, "sequential fuzzing executions")
		corpusN  = flag.Int("corpus", 120, "corpus size cap")
		tests    = flag.Int("tests", 200, "concurrent tests to enqueue")
		workers  = flag.Int("workers", 0, "parallel worker goroutines for the local stages (0 = one per CPU)")
		stateDir = flag.String("state", "", "artifact store directory: resume the campaign from it")
		lease    = flag.Duration("lease", 30*time.Second, "worker lease timeout before an unsettled job is redelivered")
		retries  = flag.Int("retries", 3, "delivery attempts per job before it is dead-lettered")
		httpAddr = flag.String("http", "", "serve live introspection (/metrics, /progress, /events, /coverage, /campaign, /debug/pprof) on this address")
		progress = flag.Duration("progress", 10*time.Second, "interval between one-line progress reports on stderr (0 disables)")
	)
	flag.Parse()
	diag := obs.Diag
	diag.SetPrefix("sbqueue")
	stopObs, err := obs.StartCLI("", *httpAddr, *progress)
	if err != nil {
		log.Fatal(err)
	}
	defer stopObs()

	reg := queue.NewRegistry(queue.Options{LeaseTimeout: *lease, MaxAttempts: *retries})
	defer reg.Close()
	c, err := core.StartCampaign(core.CampaignSpec{
		Version:    *version,
		Method:     *method,
		Seed:       *seed,
		FuzzBudget: *fuzzN,
		CorpusCap:  *corpusN,
		TestBudget: *tests,
		Workers:    *workers,
	}, core.CampaignEnv{StateDir: *stateDir, Registry: reg})
	if err != nil {
		log.Fatal(err)
	}

	// Workers can join once stages 1–3 have pushed the jobs. A campaign
	// that finishes first (a memoized rerun, or no tests) serves nothing.
	st := c.Status()
	for st.Expected == 0 && !finished(st) {
		time.Sleep(10 * time.Millisecond)
		st = c.Status()
	}
	if !finished(st) {
		srv, err := queue.ServeRegistry(reg, *addr, queue.ServerOptions{})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		diag.Printf("%d jobs; queue listening on %s — join with: sbexec -addr %s -queue %s",
			st.Expected, srv.Addr(), srv.Addr(), c.QueueName())
	}

	r, err := c.Wait()
	if err != nil {
		log.Fatal(err)
	}
	redelivered, q := 0, reg.Get(c.QueueName())
	if q != nil {
		redelivered = q.Stats().Redelivered
	}
	sum := r.Distributed
	fmt.Printf("%d/%d jobs reported (%d redeliveries, %d duplicate reports folded), %d exercised their PMC channel\n",
		sum.Reported, sum.Expected, redelivered, sum.Duplicates, sum.Exercised)
	fmt.Printf("issues found (Table 2 numbers): %v\n", sum.BugIDs)
	fmt.Print(r.IssueTable())
	if len(sum.DeadJobs) > 0 {
		fmt.Printf("dead-lettered jobs after %d attempts: %v\n", *retries, sum.DeadJobs)
		if q != nil {
			for _, d := range q.DeadLetters() {
				diag.Printf("dead job %d (%d attempts): %s", d.Job.ID, d.Attempts, d.Reason)
			}
		}
	}
}

// finished reports whether the campaign has stopped running.
func finished(st core.CampaignStatus) bool {
	return st.State == core.CampaignDone || st.State == core.CampaignFailed
}
