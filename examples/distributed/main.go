// distributed demonstrates the §4.4.1 deployment shape: a coordinator
// generates concurrent tests and serves them over the lightweight TCP
// queue; worker goroutines (each owning its own simulated kernel, like the
// paper's machine-B fleet) lease a turn of jobs in one round trip, explore
// interleavings, and settle the turn — each test's whole outcome, each
// lease released — in one more. Delivery is at-least-once: worker 0
// deliberately "crashes" (walks away holding its leases) on the first turn
// it receives, which the queue redelivers after the leases expire — the
// folded report still counts every job exactly once, and equals what a
// local run of the same tests would have found, because a job carries its
// seed. In
// production the workers would be separate processes on separate machines
// (see cmd/sbqueue and cmd/sbexec).
package main

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"snowboard"
	"snowboard/internal/core"
	"snowboard/internal/queue"
)

func main() {
	// Coordinator: corpus -> profiles -> PMCs -> concurrent tests.
	opts := snowboard.DefaultOptions()
	opts.Seed = 3
	opts.FuzzBudget = 500
	opts.CorpusCap = 120
	p := snowboard.NewPipeline(opts)
	defer p.Close()
	r := p.NewReport()
	p.BuildCorpus(r)
	if err := p.ProfileAll(r); err != nil {
		log.Fatal(err)
	}
	p.IdentifyPMCs(r)
	tests := p.GenerateTests(r, 48)
	fmt.Printf("coordinator: %d tests from %d PMCs (%d clusters)\n",
		len(tests), r.DistinctPMCs, r.ExemplarPMCs)

	// A short lease keeps the demo snappy: the abandoned turn redelivers
	// after 300ms instead of the production default of 30s.
	q := queue.NewWithOptions(queue.Options{
		Name:         "example",
		LeaseTimeout: 300 * time.Millisecond,
		MaxAttempts:  3,
	})
	srv, err := queue.Serve(q, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	if err := p.PushTests(q, tests, ""); err != nil {
		log.Fatal(err)
	}

	// Fleet: four workers over TCP, each with a private simulated kernel.
	// Worker 0 abandons its first turn without settling it — the preempted
	// cloud machine of §4.4.1 — and the queue redelivers those jobs.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := queue.DialOpts(srv.Addr(), queue.DialOptions{})
			if err != nil {
				log.Fatal(err)
			}
			defer c.Close()
			env := snowboard.NewEnv(opts.Version)
			defer env.Close()
			worker := core.NewWorker(env, fmt.Sprintf("worker-%d", id), nil)
			crashed := false
			for {
				leases, err := c.LeaseN(core.TurnJobs)
				if errors.Is(err, queue.ErrEmpty) {
					// Jobs may still be outstanding under other workers'
					// leases; only stop once everything has settled.
					st := q.Stats()
					if st.Pending == 0 && st.Leased == 0 {
						return
					}
					time.Sleep(20 * time.Millisecond)
					continue
				}
				if errors.Is(err, queue.ErrClosed) {
					return
				}
				if err != nil {
					log.Fatal(err)
				}
				if id == 0 && !crashed {
					// Simulated preemption: walk away holding a whole turn.
					// Its leases expire and the jobs redeliver to healthy
					// workers.
					crashed = true
					fmt.Printf("worker-0 crashed holding a turn of %d jobs (first: job %d, attempt %d); the leases will expire\n",
						len(leases), leases[0].Job.ID, leases[0].Attempt)
					continue
				}
				// Explore the turn and settle it in one frame (or nack)
				// exactly as sbexec and sbd do: one core.Worker behind
				// every front door.
				worker.Do(c, leases)
			}
		}(w)
	}
	wg.Wait()

	// Fold exactly once per job, as a local run would have.
	st := q.Stats()
	if err := p.FoldResults(r, tests, q.Results(), q.DeadLetters()); err != nil {
		log.Fatal(err)
	}
	sum := r.Distributed
	fmt.Printf("fleet: %d trials total, %d/%d tests exercised their channel\n", sum.Trials, sum.Exercised, len(tests))
	fmt.Printf("delivery: %d/%d reported, %d redeliveries, %d duplicate reports folded, %d dead-lettered, lost=%v\n",
		sum.Reported, sum.Expected, st.Redelivered, sum.Duplicates, len(sum.DeadJobs), sum.Lost())
	fmt.Printf("issues found across the fleet (Table 2 numbers): %v\n", sum.BugIDs)
	fmt.Print(r.IssueTable())
}
