// Command sbexec is a Snowboard execution worker: it joins one campaign's
// queue on an sbqueue coordinator or an sbd control plane, leases
// concurrent-test jobs, explores each with the PMC-hinted scheduler, and
// reports the outcomes back. Run one per core or per machine, as the paper
// distributes testing across its machine-B fleet.
//
// Usage:
//
//	sbexec -addr 127.0.0.1:7070 -queue campaign.<id> [-version 5.12-rc3]
//	       [-workers 0] [-state dir] [-name worker-1]
//	       [-idle-exit 5s] [-retries 8] [-http :0] [-progress 10s]
//
// Every listener serves one named queue per campaign and no default one,
// so -queue is required: it names the campaign to drain ("campaign.<id>",
// as sbqueue logs it once its jobs are pushed and GET /campaigns on sbd
// lists ids). A queue the listener does not hold — a typo, or a campaign
// that has not pushed its jobs yet — exits 1 naming it. Every job carries
// its campaign's trial budget, so the coordinator folds this worker's
// results into the report it would have produced alone.
//
// Delivery is at-least-once: each explorer goroutine leases a job in one
// round trip and settles it in one more — its outcome recorded and its
// lease released together — or nacks a job it cannot run, so the
// coordinator redelivers it elsewhere instead of losing it. A lease keeper
// extends the lease when an exploration runs long.
// Transient network errors never kill the process: the client reconnects
// with exponential backoff (up to -retries attempts per operation), and
// unresolvable by-reference jobs are nacked and counted (worker.poisoned)
// rather than crashing the worker.
//
// With -state, the worker opens the content-addressed artifact store rooted
// there and resolves by-reference jobs (corpus digest + pair indices, as
// enqueued by sbqueue -state or sbd -state) against it; each referenced
// corpus artifact is decoded once per process and cached. Without -state,
// a by-reference job cannot be explored and is nacked with a clear reason;
// the job redelivers — to another worker or to the coordinator's own
// executor, which resolves it from its in-memory corpus — and lands on the
// dead-letter list only once the coordinator's retry budget is spent.
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
	"bytes"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"snowboard"
	"snowboard/internal/core"
	"snowboard/internal/corpus"
	"snowboard/internal/obs"
	"snowboard/internal/par"
	"snowboard/internal/queue"
	"snowboard/internal/store"
)

var mPoisoned = obs.C(obs.MWorkerPoisoned)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "queue coordinator address")
		qname    = flag.String("queue", "", "campaign queue to drain (campaign.<id>, as the coordinator logs it; required)")
		version  = flag.String("version", string(snowboard.V5_12_RC3), "simulated kernel version")
		workers  = flag.Int("workers", 0, "explorer goroutines in this process (0 = one per CPU)")
		stateDir = flag.String("state", "", "artifact store directory for resolving by-reference jobs (must match the coordinator's -state)")
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
	kver, err := snowboard.ParseVersion(*version)
	if err != nil {
		log.Fatal(err)
	}

	if *events != "" {
		f, err := os.OpenFile(*events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		obs.Events.SetSink(f)
		diag.Printf("flight-recorder events -> %s", *events)
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

	client, err := queue.DialOpts(*addr, queue.DialOptions{MaxRetries: *retries, Queue: *qname})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	cache := &corpusCache{m: make(map[string]*corpus.Corpus)}
	if *stateDir != "" {
		cache.st, err = store.Open(*stateDir)
		if err != nil {
			log.Fatal(err)
		}
		diag.Printf("resolving by-reference jobs from artifact store %s", *stateDir)
	}

	nw := par.Workers(*workers)
	var jobs atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, nw)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = workLoop(client, cache, kver, *name, *idleExit, &jobs)
		}()
	}
	wg.Wait()
	diag.Printf("all %d explorer goroutines done, processed %d jobs", nw, jobs.Load())
	for _, err := range errs {
		if errors.Is(err, queue.ErrUnknownQueue) {
			log.Fatalf("%v on %s: check -queue, and join once the campaign has pushed its jobs", err, *addr)
		}
	}
}

// corpusCache resolves corpus artifacts referenced by jobs, decoding each
// digest at most once per process; safe for concurrent explorer goroutines.
type corpusCache struct {
	st *store.Store
	mu sync.Mutex
	m  map[string]*corpus.Corpus
}

// get returns the decoded corpus for a hex digest, loading it from the
// store on first use.
func (cc *corpusCache) get(hex string) (*corpus.Corpus, error) {
	if cc.st == nil {
		return nil, fmt.Errorf("job references corpus artifact %.12s… but no artifact store is attached — rerun with -state pointing at the coordinator's store", hex)
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if c, ok := cc.m[hex]; ok {
		return c, nil
	}
	d, err := store.ParseDigest(hex)
	if err != nil {
		return nil, fmt.Errorf("bad corpus digest %q: %v", hex, err)
	}
	payload, err := cc.st.Get(store.KindCorpus, d)
	if err != nil {
		return nil, fmt.Errorf("corpus artifact %.12s…: %v", hex, err)
	}
	c, err := corpus.DecodeCorpus(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("corpus artifact %.12s…: %v", hex, err)
	}
	cc.m[hex] = c
	return c, nil
}

// workLoop is one explorer goroutine: it owns a core.Worker on a private
// simulated-kernel environment and leases one job per turn from the shared
// (mutex-guarded) client until the queue closes or stays empty past the
// idle deadline; a goroutine never holds jobs its idle siblings could run.
// What a job computes, and how a turn settles in one frame, is
// core.Worker.Do — shared with every other front door.
// Network errors are retried inside the client, and only an exhausted
// retry budget or an unknown queue ends the loop early; it returns that
// error, and nil once the queue closes or idles out.
func workLoop(client *queue.Client, cache *corpusCache, version snowboard.Version, name string, idleExit time.Duration, jobs *atomic.Int64) error {
	env := snowboard.NewEnv(version)
	defer env.Close()
	w := core.NewWorker(env, name, func(job *queue.Job) error {
		c, err := cache.get(job.Corpus)
		if err == nil {
			err = job.Resolve(c)
		}
		if err != nil {
			// Poisoned job: nacked, so the coordinator redelivers it (maybe
			// another worker has the store) or dead-letters it.
			mPoisoned.Inc()
		}
		return err
	})
	idleSince := time.Now()
	for {
		leases, err := client.LeaseN(1)
		switch {
		case errors.Is(err, queue.ErrEmpty):
			if time.Since(idleSince) > idleExit {
				return nil
			}
			time.Sleep(100 * time.Millisecond)
			continue
		case errors.Is(err, queue.ErrClosed):
			return nil
		case errors.Is(err, queue.ErrUnknownQueue):
			return err
		case err != nil:
			// The client already reconnected with backoff and gave up: the
			// coordinator is unreachable. Leased work redelivers elsewhere.
			obs.Diag.Printf("lease: %v — worker goroutine exiting", err)
			return err
		}
		idleSince = time.Now()
		jobs.Add(int64(len(leases)))
		w.Do(client, leases)
	}
}

func hostDefault() string {
	h, err := os.Hostname()
	if err != nil {
		return "worker"
	}
	return h
}
