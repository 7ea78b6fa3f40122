package queue_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"snowboard/internal/queue"
)

// TestChaosFleet runs a fleet against a real TCP server through a seeded
// fault injector that randomly severs and delays connections: three
// workers taking one job per round trip through the one-call wrappers
// (Lease, Report, Ack) and one taking turns of four (LeaseN, then one
// Settle). The at-least-once machinery must absorb every injected failure:
// no job may be lost, none may be double-counted after the by-job-ID fold,
// and with a generous retry budget nothing should dead-letter.
func TestChaosFleet(t *testing.T) {
	const (
		jobs     = 40
		nWorkers = 3 // one-job workers; worker nWorkers takes turns
		seed     = 1234
	)
	q := queue.NewWithOptions(queue.Options{
		Name:         "chaos",
		LeaseTimeout: 150 * time.Millisecond,
		MaxAttempts:  50,
	})
	srv, err := queue.Serve(q, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// One-call programs keep the wire frames small; the workers here never
	// explore them — they only exercise the delivery machinery.
	for i := 0; i < jobs; i++ {
		if err := q.Push(queue.TestJob(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Every worker dials through a flaky transport: ~3% of reads/writes
	// sever the connection, ~5% stall briefly. The seeds are fixed, so the
	// fault schedule is reproducible (modulo goroutine interleaving).
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w <= nWorkers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := queue.DialOpts(srv.Addr(), queue.DialOptions{
				MaxRetries: 8,
				BaseDelay:  time.Millisecond,
				MaxDelay:   20 * time.Millisecond,
				Seed:       int64(seed + id),
				Dial: queue.FlakyDialer(queue.FlakyOptions{
					Seed:      int64(seed * (id + 1)),
					FailProb:  0.03,
					DelayProb: 0.05,
					MaxDelay:  2 * time.Millisecond,
				}, nil),
			})
			if err != nil {
				t.Errorf("worker %d dial: %v", id, err)
				return
			}
			defer c.Close()
			work := oneJob
			if id == nWorkers {
				work = oneTurn
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !work(t, c) {
					return
				}
			}
		}(w)
	}

	// Wait for every job to settle (acked or dead-lettered), then release
	// the workers.
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := q.Stats()
		if st.Pending == 0 && st.Leased == 0 {
			break
		}
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Fatalf("fleet never settled: stats = %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if dead := q.DeadLetters(); len(dead) != 0 {
		t.Fatalf("dead letters under chaos: %+v", dead)
	}
	// Fold reports exactly once per job: redelivery may produce duplicate
	// reports (they are identical), but after the fold every job must be
	// counted exactly once and none may be missing.
	results := q.Results()
	seen := make(map[int]int)
	byTurns := 0
	for _, r := range results {
		seen[r.JobID]++
		if r.Worker == "chaos-turn" {
			byTurns++
		}
	}
	for i := 0; i < jobs; i++ {
		if seen[i] == 0 {
			t.Errorf("job %d lost: never reported", i)
		}
	}
	if len(seen) != jobs {
		t.Errorf("distinct jobs reported = %d, want %d", len(seen), jobs)
	}
	if byTurns == 0 {
		t.Error("the turn-batched worker settled nothing")
	}
	st := q.Stats()
	if st.Done != jobs {
		t.Errorf("acked jobs = %d, want %d", st.Done, jobs)
	}
	t.Logf("chaos fleet: %d reports (%d by turns) for %d jobs, %d redeliveries, stats %+v",
		len(results), byTurns, jobs, st.Redelivered, st)
}

// idle reports whether a lease came back empty or failed under injected
// faults (the retry budget exhausted; the next round trip redials from
// scratch), pausing before the caller polls again.
func idle(err error) bool {
	if err == nil || errors.Is(err, queue.ErrClosed) {
		return false
	}
	time.Sleep(5 * time.Millisecond)
	return true
}

// oneJob leases, reports and acks one job through the one-call wrappers;
// false once the queue has closed.
func oneJob(t *testing.T, c *queue.Client) bool {
	ls, err := c.Lease()
	if idle(err) {
		return true
	}
	if err != nil {
		return false
	}
	if err := c.Report(queue.JobResult{JobID: ls.Job.ID, Trials: 1, Worker: "chaos"}); err != nil {
		// The report never landed: hand the lease back rather than lose
		// the job.
		_ = c.Nack(ls.ID, "report failed")
		return true
	}
	if err := c.Ack(ls.ID); err != nil && !errors.Is(err, queue.ErrUnknownLease) &&
		!errors.Is(err, queue.ErrClosed) {
		t.Errorf("ack job %d: %v", ls.Job.ID, err)
	}
	return true
}

// oneTurn leases a turn of up to four jobs in one frame and settles it in
// one more, handing the turn back when the settle never landed; false once
// the queue has closed.
func oneTurn(t *testing.T, c *queue.Client) bool {
	turn, err := c.LeaseN(nil, 4)
	if idle(err) {
		return true
	}
	if err != nil {
		return false
	}
	items := make([]queue.Settlement, len(turn))
	for i, ls := range turn {
		items[i] = queue.Settlement{Lease: ls.ID,
			Result: &queue.JobResult{JobID: ls.Job.ID, Trials: 1, Worker: "chaos-turn"}}
	}
	errs, err := c.Settle(items)
	for i, ls := range turn {
		switch {
		case err != nil:
			_ = c.Nack(ls.ID, "settle failed")
		case errs[i] != nil && !errors.Is(errs[i], queue.ErrUnknownLease):
			t.Errorf("settle job %d: %v", ls.Job.ID, errs[i])
		}
	}
	return true
}
