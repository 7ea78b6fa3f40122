package queue

import (
	"encoding/json"
	"errors"
	"sync"
	"testing"

	"snowboard/internal/corpus"
	"snowboard/internal/kernel"
	"snowboard/internal/pmc"
)

func testJob(id int) Job {
	prog := &corpus.Prog{Calls: []corpus.Call{
		{Nr: kernel.SysMountNr},
	}}
	return Job{
		ID:     id,
		Writer: prog,
		Reader: prog.Clone(),
		Hint: &pmc.PMC{
			Write: pmc.Key{Addr: 0x100, Size: 8, Val: 1},
			Read:  pmc.Key{Addr: 0x100, Size: 8, Val: 2},
		},
		Pair: pmc.Pair{Writer: 0, Reader: 1},
	}
}

func TestQueueFIFO(t *testing.T) {
	q := New()
	for i := 0; i < 3; i++ {
		if err := q.Push(testJob(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := q.Stats().Pending; n != 3 {
		t.Fatalf("pending %d", n)
	}
	for i := 0; i < 3; i++ {
		ls, err := q.TryLease()
		if err != nil || ls.Job.ID != i {
			t.Fatalf("lease %d: %v %v", i, ls.Job.ID, err)
		}
		if err := q.Ack(ls.ID); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTryLeaseEmpty(t *testing.T) {
	q := New()
	if _, err := q.TryLease(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err: %v", err)
	}
	q.Close()
	if _, err := q.TryLease(); !errors.Is(err, ErrClosed) {
		t.Fatalf("err after close: %v", err)
	}
	if err := q.Push(testJob(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after close: %v", err)
	}
}

func TestResultsDrain(t *testing.T) {
	q := New()
	_ = q.Report(JobResult{JobID: 1})
	_ = q.Report(JobResult{JobID: 2})
	rs := q.Results()
	if len(rs) != 2 {
		t.Fatalf("results: %d", len(rs))
	}
	if len(q.Results()) != 0 {
		t.Fatal("results not drained")
	}
}

func TestJobEncodeDecode(t *testing.T) {
	j := testJob(5)
	data, err := EncodeJob(j)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJob(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 5 || got.Hint == nil || got.Hint.Read.Val != 2 {
		t.Fatalf("decoded: %+v", got)
	}
	if _, err := DecodeJob([]byte(`{"id":1}`)); err == nil {
		t.Fatal("job without programs decoded")
	}
	if _, err := DecodeJob([]byte(`{"id":1,"writer":{"calls":[{"nr":999}]},"reader":{"calls":[]}}`)); err == nil {
		t.Fatal("invalid program decoded")
	}
}

func TestTCPRoundtrip(t *testing.T) {
	q := New()
	srv, err := Serve(q, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := DialOpts(srv.Addr(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Lease(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("lease on empty: %v", err)
	}
	if err := q.Push(testJob(9)); err != nil {
		t.Fatal(err)
	}
	ls, err := c.Lease()
	if err != nil || ls.Job.ID != 9 {
		t.Fatalf("lease: %v %v", ls.Job.ID, err)
	}
	if err := c.Ack(ls.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.Report(JobResult{JobID: 9, Trials: 3, Outcome: json.RawMessage(`{"Trials":3}`)}); err != nil {
		t.Fatal(err)
	}
	rs := q.Results()
	if len(rs) != 1 || rs[0].JobID != 9 || string(rs[0].Outcome) != `{"Trials":3}` {
		t.Fatalf("results: %+v", rs)
	}
}

func TestTCPMultipleWorkers(t *testing.T) {
	q := New()
	srv, err := Serve(q, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const jobs = 40
	for i := 0; i < jobs; i++ {
		if err := q.Push(testJob(i)); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	seen := make(map[int]bool)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialOpts(srv.Addr(), DialOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for {
				ls, err := c.Lease()
				if errors.Is(err, ErrEmpty) {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				j := ls.Job
				if err := c.Ack(ls.ID); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if seen[j.ID] {
					t.Errorf("job %d delivered twice", j.ID)
				}
				seen[j.ID] = true
				mu.Unlock()
				_ = c.Report(JobResult{JobID: j.ID})
			}
		}()
	}
	wg.Wait()
	if len(seen) != jobs {
		t.Fatalf("delivered %d/%d jobs", len(seen), jobs)
	}
	if got := len(q.Results()); got != jobs {
		t.Fatalf("results %d/%d", got, jobs)
	}
}
