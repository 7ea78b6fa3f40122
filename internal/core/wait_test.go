package core

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"snowboard/internal/queue"
)

// settleLeaser settles a turn only once the other jobs of its batch have
// all settled and a moment has passed, so every other Worker has run out
// of work and waits on the queue; settled is when the turn's Settle began.
type settleLeaser struct {
	localLeaser
	settled time.Time
}

func (l *settleLeaser) Settle(items []queue.Settlement) ([]error, error) {
	for st := l.Stats(); st.Pending != 0 || st.Leased != len(items); st = l.Await(st) {
	}
	time.Sleep(time.Millisecond)
	l.settled = time.Now()
	return l.Queue.Settle(items), nil
}

// TestStragglerSettleEndsDrainPromptly: two Workers drain a batch whose
// first job a joined worker holds and settles late, once both Workers
// have run out of jobs. Drain must return within a millisecond of that
// settle (the median of 25 batches): a Worker with nothing pending waits
// on the queue, not on a clock, so a straggler costs no poll period.
func TestStragglerSettleEndsDrainPromptly(t *testing.T) {
	p, base, _, tests := smallCampaign(t)
	p.Opts.Workers = 2
	q, ws := p.executors()
	joined := NewWorker(p.Env.Clone(), "joined")
	defer joined.Close()
	defer joined.env.Close()
	var lags []time.Duration
	for range 25 {
		p.exploreUnits = 0
		b, err := p.pushBatch(q, freshCopy(base), tests)
		if err != nil {
			t.Fatal(err)
		}
		held, err := q.TryLease()
		if err != nil {
			t.Fatal(err)
		}
		drained := make(chan error, 1)
		go func() { drained <- p.drain(b, q, ws) }()
		lsr := &settleLeaser{localLeaser: localLeaser{q}}
		if n, _ := joined.Do(lsr, []queue.Lease{held}); n != 1 {
			t.Fatalf("the joined worker settled %d of its 1 job", n)
		}
		if err := <-drained; err != nil {
			t.Fatal(err)
		}
		lags = append(lags, time.Since(lsr.settled))
		sum, err := b.finish(q.Results(), q.DeadLetters())
		if err != nil || sum.Reported != len(tests) || sum.Lost() {
			t.Fatalf("fold: %v, summary %+v", err, sum)
		}
	}
	slices.Sort(lags)
	t.Logf("drain returned %v (median) after the straggler settled; range %v–%v", lags[len(lags)/2], lags[0], lags[len(lags)-1])
	if lags[len(lags)/2] >= time.Millisecond {
		t.Fatalf("drain returned a median %v after the last settle, want under 1ms", lags[len(lags)/2])
	}
}

// TestWorkerJoinsBeforeFirstPush: a campaign's queue exists from its
// admission, so a worker joining over TCP right after StartCampaign
// returns waits for the first batch instead of failing on an unknown
// queue. The in-process executor is held at the gate until the joined
// worker has settled every job, and Join returns nil once the campaign
// closes its queue.
func TestWorkerJoinsBeforeFirstPush(t *testing.T) {
	reg := queue.NewRegistry(queue.Options{})
	defer reg.Close()
	srv, err := queue.ServeRegistry(reg, "127.0.0.1:0", queue.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	gate := make(chan struct{})
	c, err := StartCampaign(smallSpec("early", 5), CampaignEnv{Registry: reg, ExecGate: gate})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := queue.DialOpts(srv.Addr(), queue.DialOptions{Queue: c.QueueName()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	w := NewWorker(nil, "early")
	defer w.Close()
	type joined struct {
		n   int
		err error
	}
	done := make(chan joined, 1)
	go func() {
		n, err := w.Join(cl, TurnJobs, time.Minute)
		done <- joined{n, err}
	}()
	q := reg.Get(c.QueueName())
	if q == nil {
		t.Fatalf("the admitted campaign has no queue; the joined worker: %v", (<-done).err)
	}
	for st := q.Stats(); st.Done == 0 || st.Pending+st.Leased > 0; st = q.Await(st) {
	}
	close(gate)
	r, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	got := <-done
	if got.err != nil {
		t.Fatalf("Join: %v", got.err)
	}
	if sum := r.Distributed; sum == nil || got.n != sum.Expected || sum.Reported != sum.Expected || sum.Expected == 0 {
		t.Fatalf("the joined worker settled %d jobs, the campaign's delivery is %+v", got.n, r.Distributed)
	}
}

// TestMemoHitCampaignClosesItsQueue: a campaign whose report is memoized
// finishes without pushing a batch, and still closes the queue it opened
// at admission, so the lease reaper a joined worker's lease started
// exits with it.
func TestMemoHitCampaignClosesItsQueue(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec("memo", 7)
	for pass := range 2 {
		reg := queue.NewRegistry(queue.Options{})
		baseline := runtime.NumGoroutine()
		c, err := StartCampaign(spec, CampaignEnv{Registry: reg, StateDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		// A lease on the admitted queue starts its reaper.
		reg.Get(c.QueueName()).TryLease()
		if _, err := c.Wait(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			buf := make([]byte, 1<<16)
			t.Fatalf("pass %d: goroutines %d -> %d\n%s", pass, baseline, n, buf[:runtime.Stack(buf, true)])
		}
	}
}
