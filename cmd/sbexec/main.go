// Command sbexec is a Snowboard execution worker: it joins one campaign's
// queue on a `snowboard -listen` coordinator or an sbd control plane,
// leases concurrent-test jobs, explores each with the PMC-hinted
// scheduler, and reports the outcomes back. Run one per core or per machine, as the paper
// distributes testing across its machine-B fleet.
//
// Usage:
//
//	sbexec -addr 127.0.0.1:7070 -queue campaign.<id> [-workers 0]
//	       [-name worker-1] [-idle-exit 5s] [-retries 8] [-http :0]
//	       [-progress 10s] [-events file]
//
// Every listener serves one named queue per campaign and no default one,
// so -queue is required: it names the campaign to drain ("campaign.<id>",
// as `snowboard -listen` logs it and GET /campaigns on sbd lists ids); it
// exists from the campaign's admission, and a worker that joins before the
// first batch waits up to -idle-exit. A queue the listener does not hold
// — a typo — exits 1 naming it. Every job carries both of its programs,
// its campaign's kernel version and trial budget, so the worker needs
// nothing but the address to explore it exactly as the coordinator would:
// the coordinator folds this worker's results into the report it would
// have produced alone. A job of a kernel version the worker has not seen
// yet boots that kernel on first use.
//
// Delivery is at-least-once: each explorer goroutine leases a job in one
// round trip and settles it in one more — its outcome recorded and its
// lease released together — or nacks a job it cannot run (counted as
// worker.poisoned), so the coordinator redelivers it elsewhere or
// dead-letters it with the reason instead of losing it. A lease keeper
// extends the lease when an exploration runs long. Transient network
// errors never kill the process: the client reconnects with exponential
// backoff (up to -retries attempts per operation).
//
// With -workers N the process runs N explorer goroutines against one
// shared queue connection, each with its own simulated-kernel environment.
// A job carries its exploration seed and its result is the whole outcome
// (issues, trials, a crashing trial's replayable state), so findings are
// identical however jobs land on workers and however often one redelivers.
//
// All worker chatter goes to stderr; with -http, the worker's own metrics
// (exec.tests, sched.trials, channel hits, …) are served live.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"snowboard/internal/core"
	"snowboard/internal/obs"
	"snowboard/internal/par"
	"snowboard/internal/queue"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "queue coordinator address")
		qname    = flag.String("queue", "", "campaign queue to drain (campaign.<id>, as the coordinator logs it; required)")
		workers  = flag.Int("workers", 0, "explorer goroutines in this process (0 = one per CPU)")
		name     = flag.String("name", hostDefault(), "worker name in reports")
		idleExit = flag.Duration("idle-exit", 5*time.Second, "exit after this long with an empty queue")
		retries  = flag.Int("retries", 8, "reconnect attempts (exponential backoff) per queue operation")
		httpAddr = flag.String("http", "", "serve live introspection (/metrics, /progress, /events, /coverage, /campaign, /debug/pprof) on this address")
		progress = flag.Duration("progress", 10*time.Second, "interval between one-line progress reports on stderr (0 disables)")
		events   = flag.String("events", "", "append flight-recorder events to this file as JSONL")
	)
	flag.Parse()
	if *qname == "" {
		fmt.Fprintln(os.Stderr, "sbexec: -queue is required: name the campaign queue to drain (campaign.<id>)")
		flag.Usage()
		os.Exit(2)
	}
	diag := obs.Diag
	diag.SetPrefix("sbexec[" + *name + "]")

	stopObs, err := obs.StartCLI(*events, *httpAddr, *progress)
	if err != nil {
		log.Fatal(err)
	}
	defer stopObs()

	client, err := queue.DialOpts(*addr, queue.DialOptions{MaxRetries: *retries, Queue: *qname})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// Each goroutine leases one job per turn from the shared (mutex-guarded)
	// client, so a goroutine never holds jobs its idle siblings could run.
	nw := par.Workers(*workers)
	var jobs atomic.Int64
	var wg sync.WaitGroup
	for range nw {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := core.NewWorker(nil, *name)
			defer w.Close()
			n, err := w.Join(client, 1, *idleExit)
			jobs.Add(int64(n))
			switch {
			case errors.Is(err, queue.ErrUnknownQueue): // a typo: a campaign's queue exists from admission
				log.Fatalf("%v on %s: check -queue", err, *addr)
			case err != nil:
				diag.Printf("lease: %v — worker goroutine exiting", err)
			}
		}()
	}
	wg.Wait()
	diag.Printf("all %d explorer goroutines done, processed %d jobs", nw, jobs.Load())
}

func hostDefault() string {
	h, err := os.Hostname()
	if err != nil {
		return "worker"
	}
	return h
}
