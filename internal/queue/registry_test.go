package queue

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"snowboard/internal/obs"
)

func TestRegistryOpenIsIdempotent(t *testing.T) {
	reg := NewRegistry(Options{MaxAttempts: 5})
	defer reg.Close()
	a := reg.Open("campaign.a")
	if got := reg.Open("campaign.a"); got != a {
		t.Fatal("Open returned a different queue for the same name")
	}
	if reg.Get("campaign.a") != a {
		t.Fatal("Get did not return the opened queue")
	}
	if reg.Get("never-opened") != nil {
		t.Fatal("Get invented a queue for an unknown name")
	}
	if a.opts.MaxAttempts != 5 {
		t.Fatalf("opened queue did not inherit template MaxAttempts: got %d", a.opts.MaxAttempts)
	}
	// A closed queue is not handed out again: the name gets a fresh queue,
	// so a finished campaign started a second time can push.
	a.Close()
	b := reg.Open("campaign.a")
	if b == a || reg.Get("campaign.a") != b {
		t.Fatal("Open returned the closed queue")
	}
	if err := b.Push(testJob(1)); err != nil {
		t.Fatalf("push on the reopened queue: %v", err)
	}
}

func TestServerRejectsUnknownQueue(t *testing.T) {
	reg := NewRegistry(Options{})
	defer reg.Close()
	reg.Open("known")
	srv, err := ServeRegistry(reg, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A typo'd queue name fails loudly with the sentinel.
	c, err := DialOpts(srv.Addr(), DialOptions{Queue: "knwon"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Lease(); !errors.Is(err, ErrUnknownQueue) {
		t.Fatalf("lease on unknown queue: %v, want ErrUnknownQueue", err)
	}
	// A registry without an unnamed queue answers unnamed requests the same.
	d, err := DialOpts(srv.Addr(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Lease(); !errors.Is(err, ErrUnknownQueue) {
		t.Fatalf("unnamed lease on registry server: %v, want ErrUnknownQueue", err)
	}
	// The known queue works.
	if err := reg.Get("known").Push(testJob(3)); err != nil {
		t.Fatal(err)
	}
	k, err := DialOpts(srv.Addr(), DialOptions{Queue: "known"})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	if ls, err := k.Lease(); err != nil || ls.Job.ID != 3 {
		t.Fatalf("lease on known queue = %+v, %v; want job 3", ls, err)
	}
}

func TestConcurrentNamedQueuesIsolation(t *testing.T) {
	// Several named queues on one listener, hammered by concurrent clients
	// interleaving lease/ack/nack/extend. Each queue's jobs carry IDs from
	// a disjoint range and each queue gets a different job count, so any
	// cross-queue leakage shows up as a foreign job ID or a depth gauge
	// that never drains to its own count.
	const queues = 4
	reg := NewRegistry(Options{LeaseTimeout: 2 * time.Second, MaxAttempts: 4})
	defer reg.Close()
	srv, err := ServeRegistry(reg, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	name := func(i int) string { return fmt.Sprintf("tenant-%d", i) }
	jobsFor := func(i int) int { return 6 + 3*i } // distinct per-queue counts
	for i := 0; i < queues; i++ {
		q := reg.Open(name(i))
		for j := 0; j < jobsFor(i); j++ {
			if err := q.Push(testJob(1000*i + j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Fully loaded, nothing leased: every depth gauge must read exactly
	// its own queue's backlog.
	for i := 0; i < queues; i++ {
		if got := obs.Default.Snapshot().Gauge("queue." + name(i) + ".depth"); got != int64(jobsFor(i)) {
			t.Fatalf("queue %s depth gauge = %d before draining, want %d", name(i), got, jobsFor(i))
		}
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	seen := make(map[int][]int) // queue index -> job IDs processed
	for i := 0; i < queues; i++ {
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(i, w int) {
				defer wg.Done()
				c, err := DialOpts(srv.Addr(), DialOptions{Queue: name(i), Seed: int64(i*10 + w + 1)})
				if err != nil {
					t.Error(err)
					return
				}
				defer c.Close()
				for {
					ls, err := c.Lease()
					if errors.Is(err, ErrEmpty) {
						// Drained (or a sibling holds the stragglers).
						if reg.Get(name(i)).Stats().Leased == 0 {
							return
						}
						time.Sleep(time.Millisecond)
						continue
					}
					if err != nil {
						t.Errorf("queue %s lease: %v", name(i), err)
						return
					}
					if ls.Job.ID/1000 != i {
						t.Errorf("queue %s leased foreign job %d", name(i), ls.Job.ID)
					}
					// Interleave the full verb set: extend every lease, nack
					// first deliveries of every third job, ack the rest.
					if _, err := c.Extend(ls.ID, time.Second); err != nil && !errors.Is(err, ErrUnknownLease) {
						t.Errorf("queue %s extend: %v", name(i), err)
					}
					if ls.Job.ID%3 == 0 && ls.Attempt == 1 {
						if err := c.Nack(ls.ID, "retry me"); err != nil && !errors.Is(err, ErrUnknownLease) {
							t.Errorf("queue %s nack: %v", name(i), err)
						}
						continue
					}
					if err := c.Ack(ls.ID); err != nil && !errors.Is(err, ErrUnknownLease) {
						t.Errorf("queue %s ack: %v", name(i), err)
					}
					mu.Lock()
					seen[i] = append(seen[i], ls.Job.ID)
					mu.Unlock()
				}
			}(i, w)
		}
	}
	wg.Wait()

	for i := 0; i < queues; i++ {
		q := reg.Get(name(i))
		st := q.Stats()
		if st.Done != jobsFor(i) || st.Pending != 0 || st.Leased != 0 || st.DeadLettered != 0 {
			t.Fatalf("queue %s stats = %+v, want %d done and everything else drained", name(i), st, jobsFor(i))
		}
		// The per-queue depth gauge drained to zero and never absorbed a
		// neighbour's backlog.
		if got := obs.Default.Snapshot().Gauge("queue." + name(i) + ".depth"); got != 0 {
			t.Fatalf("queue %s depth gauge = %d after draining, want 0", name(i), got)
		}
		ids := make(map[int]bool)
		for _, id := range seen[i] {
			if id/1000 != i {
				t.Fatalf("queue %s processed foreign job %d", name(i), id)
			}
			ids[id] = true
		}
		if len(ids) != jobsFor(i) {
			t.Fatalf("queue %s processed %d distinct jobs, want %d", name(i), len(ids), jobsFor(i))
		}
	}
}
