// Command sbd is the Snowboard campaign control plane: a long-lived
// multi-tenant server that accepts campaign submissions over HTTP, runs
// each one through the full pipeline, shards its concurrent tests across
// a named per-campaign queue, and schedules execution fairly across every
// live campaign with a FIFO turn scheduler.
//
// Usage:
//
//	sbd [-http 127.0.0.1:8080] [-queue 127.0.0.1:0] [-state dir]
//	    [-slots 2] [-slice 4] [-lease 30s] [-retries 3] [-progress 10s]
//
// Submit a campaign by POSTing its spec as JSON:
//
//	curl -d '{"method":"S-INS-PAIR","seed":1,"test_budget":60}' \
//	     http://127.0.0.1:8080/campaigns
//
// The reply carries the campaign ID (the digest of its canonical
// manifest — resubmitting equivalent work joins the existing campaign
// instead of starting a duplicate) and its flight-recorder trace.
// Progress streams from:
//
//	GET  /campaigns               all campaigns, live counters
//	GET  /campaigns/<id>          one campaign + report once done
//	GET  /campaigns/<id>/events   per-campaign flight recorder (?since=N)
//	POST /campaigns/<id>/pause    stop at the next checkpoint
//	POST /campaigns/<id>/resume   continue
//
// plus the full obs introspection surface (/metrics, /progress, /events,
// /coverage, /debug/pprof/) for the whole process.
//
// With -state, every submission's manifest persists as a KindCampaign
// artifact and all pipeline stages memoize through the shared
// content-addressed store: a SIGKILLed and restarted sbd re-enumerates
// the manifests and resumes every in-flight campaign — completed ones
// land on their campaign-level report memo and return byte-identical
// reports without re-executing anything.
//
// The -queue listener serves every campaign's named queue on one TCP
// endpoint (protocol v2 with the "queue" request field); campaign
// executors lease their own jobs through it, and external workers join a
// campaign with `sbexec -addr <queue listener> -queue campaign.<id>`. A
// result is the test's whole outcome, folded in job order as a local run
// folds it: reports carry findings with replayable trials and, with -state,
// minimized SBRB bundles (sbrepro -state). Feedback campaigns run locally.
package main

import (
	"flag"
	"log"
	"net/http"
	"time"

	"snowboard/internal/core"
	"snowboard/internal/obs"
	"snowboard/internal/queue"
)

func main() {
	var (
		httpAddr = flag.String("http", "127.0.0.1:8080", "control-plane HTTP listen address")
		qAddr    = flag.String("queue", "127.0.0.1:0", "multi-queue TCP listen address (serves every campaign's named queue)")
		stateDir = flag.String("state", "", "artifact store directory: persist manifests, memoize stages, resume campaigns on restart")
		slots    = flag.Int("slots", 2, "campaigns executing concurrently per scheduler turn")
		slice    = flag.Int("slice", 4, "jobs one campaign executes per fair-scheduler turn")
		lease    = flag.Duration("lease", 30*time.Second, "job lease timeout before an unacked job is redelivered")
		retries  = flag.Int("retries", 3, "delivery attempts per job before it is dead-lettered")
		progress = flag.Duration("progress", 10*time.Second, "interval between one-line progress reports on stderr (0 disables)")
	)
	flag.Parse()
	diag := obs.Diag
	diag.SetPrefix("sbd")
	stopSampler := obs.StartSampler(time.Second)
	defer stopSampler()
	stopProgress := obs.StartProgress(*progress, diag)
	defer stopProgress()

	reg := queue.NewRegistry(queue.Options{LeaseTimeout: *lease, MaxAttempts: *retries})
	defer reg.Close()
	qsrv, err := queue.ServeRegistry(reg, *qAddr, queue.ServerOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer qsrv.Close()
	diag.Printf("campaign queues listening on %s", qsrv.Addr())

	s := newServer(core.CampaignEnv{
		StateDir: *stateDir,
		Registry: reg,
		Addr:     qsrv.Addr(),
		Turns:    core.NewTurnScheduler(*slots),
		Slice:    *slice,
	})
	if n, err := s.resume(); err != nil {
		log.Fatal(err)
	} else if n > 0 {
		diag.Printf("resumed %d campaign(s) from %s", n, *stateDir)
	}

	srv := &http.Server{Addr: *httpAddr, Handler: s.handler(), ReadHeaderTimeout: 5 * time.Second}
	diag.Printf("control plane listening on http://%s", *httpAddr)
	log.Fatal(srv.ListenAndServe())
}
