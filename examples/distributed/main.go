// distributed demonstrates the §4.4.1 deployment shape: a coordinator
// runs a campaign — corpus, profiles, PMCs, concurrent tests — and serves
// its queue over the lightweight TCP transport; worker goroutines (each
// owning its own simulated kernel, like the paper's machine-B fleet) join
// that queue, lease a turn of jobs in one round trip, explore
// interleavings, and settle the turn in one more, beside the coordinator's
// own executor. Delivery is at-least-once: the coordinator's executor
// deliberately "crashes" (walks away holding its leases) on the first
// turn it takes, which the queue redelivers after the leases expire — the
// folded report still counts every job exactly once, and equals what a
// local run of the same tests would have found, because a job carries its
// seed. In production the workers are separate processes on separate
// machines (see cmd/sbqueue and cmd/sbexec).
package main

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"snowboard"
	"snowboard/internal/core"
	"snowboard/internal/queue"
)

func main() {
	// A short lease keeps the demo snappy: the abandoned turn redelivers
	// after 300ms instead of the production default of 30s.
	reg := queue.NewRegistry(queue.Options{LeaseTimeout: 300 * time.Millisecond, MaxAttempts: 3})
	defer reg.Close()
	srv, err := queue.ServeRegistry(reg, "127.0.0.1:0", queue.ServerOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	spec := core.CampaignSpec{Seed: 3, FuzzBudget: 500, CorpusCap: 120, TestBudget: 48}
	c, err := core.StartCampaign(spec, core.CampaignEnv{
		Registry: reg,
		// The preempted cloud machine of §4.4.1: the first turn's jobs are
		// abandoned on their first attempt, and the queue redelivers them.
		Fault: func(jobID, attempt int) bool { return attempt == 1 && jobID < core.TurnJobs },
	})
	if err != nil {
		log.Fatal(err)
	}
	for st := c.Status(); st.Expected == 0 && st.State != core.CampaignFailed; st = c.Status() {
		time.Sleep(5 * time.Millisecond)
	}

	// Fleet: three workers over TCP, each with a private simulated kernel.
	// The campaign closes its queue once every job has settled, and each
	// worker stops there.
	var wg sync.WaitGroup
	var settled atomic.Int64
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client, err := queue.DialOpts(srv.Addr(), queue.DialOptions{Queue: c.QueueName()})
			if err != nil {
				log.Fatal(err)
			}
			defer client.Close()
			env := snowboard.NewEnv(snowboard.V5_12_RC3)
			defer env.Close()
			worker := core.NewWorker(env, fmt.Sprintf("worker-%d", id), nil)
			for {
				leases, err := client.LeaseN(core.TurnJobs)
				switch {
				case errors.Is(err, queue.ErrEmpty):
					time.Sleep(20 * time.Millisecond)
					continue
				case errors.Is(err, queue.ErrClosed):
					return
				case err != nil:
					log.Fatal(err)
				}
				// Explore the turn and settle it in one frame (or nack)
				// exactly as sbexec and sbd do: one core.Worker behind
				// every front door.
				n, _ := worker.Do(client, leases)
				settled.Add(int64(n))
			}
		}(w)
	}
	r, err := c.Wait()
	if err != nil {
		log.Fatal(err)
	}
	wg.Wait()

	sum := r.Distributed
	st := reg.Get(c.QueueName()).Stats()
	fmt.Printf("coordinator: %d tests from %d PMCs (%d clusters); joined workers settled %d of them\n",
		sum.Expected, r.DistinctPMCs, r.ExemplarPMCs, settled.Load())
	fmt.Printf("fleet: %d trials total, %d/%d tests exercised their channel\n", sum.Trials, sum.Exercised, sum.Expected)
	fmt.Printf("delivery: %d/%d reported, %d redeliveries, %d duplicate reports folded, %d dead-lettered, lost=%v\n",
		sum.Reported, sum.Expected, st.Redelivered, sum.Duplicates, len(sum.DeadJobs), sum.Lost())
	fmt.Printf("issues found across the fleet (Table 2 numbers): %v\n", sum.BugIDs)
	fmt.Print(r.IssueTable())
}
