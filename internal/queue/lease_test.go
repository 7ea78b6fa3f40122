package queue

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"snowboard/internal/obs"
)

// settle polls until cond is true or the deadline passes.
func settle(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never settled")
}

func TestLeaseAck(t *testing.T) {
	q := NewWithOptions(Options{Name: "lease-ack"})
	defer q.Close()
	if err := q.Push(testJob(1)); err != nil {
		t.Fatal(err)
	}
	ls, err := q.TryLease()
	if err != nil {
		t.Fatal(err)
	}
	if ls.Job.ID != 1 || ls.Attempt != 1 || ls.ID == 0 {
		t.Fatalf("lease = %+v", ls)
	}
	if time.Until(ls.Deadline) <= 0 {
		t.Fatalf("lease deadline %v already passed", ls.Deadline)
	}
	// While leased, the queue looks empty but not settled.
	if _, err := q.TryLease(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("second lease: %v", err)
	}
	if st := q.Stats(); st.Pending != 0 || st.Leased != 1 || st.Done != 0 {
		t.Fatalf("stats while leased = %+v", st)
	}
	if errs := q.Settle([]Settlement{{Lease: ls.ID, Result: &JobResult{JobID: 1, Trials: 2}}}); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if st := q.Stats(); st.Leased != 0 || st.Done != 1 {
		t.Fatalf("stats after settle = %+v", st)
	}
	if res := q.Results(); len(res) != 1 || res[0].JobID != 1 {
		t.Fatalf("results after settle = %+v", res)
	}
	// Settling twice — here as a bare Ack, a one-item settle — is an
	// unknown lease, not silent corruption.
	if err := q.Ack(ls.ID); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("double settle: %v", err)
	}
}

func TestSettleIsOneCriticalSection(t *testing.T) {
	// A settle records each result and releases its lease together: a
	// settled lease emits job.acked and never redelivers after its TTL, a
	// lease that lapsed first still gets its result recorded (its item
	// answers the benign ErrUnknownLease), and a closed queue refuses the
	// result and leaves the lease held for the worker to nack.
	const ttl = 100 * time.Millisecond
	q := NewWithOptions(Options{Name: "settle", LeaseTimeout: ttl, MaxAttempts: 5})
	defer q.Close()
	trace := obs.NewTraceID()
	for id := 1; id <= 3; id++ {
		j := testJob(id)
		j.Trace = trace
		if err := q.Push(j); err != nil {
			t.Fatal(err)
		}
	}
	turn, err := q.LeaseN(nil, 2)
	if err != nil || len(turn) != 2 || turn[0].Job.ID != 1 || turn[1].Job.ID != 2 {
		t.Fatalf("LeaseN(2) = %+v, %v; want jobs 1 and 2", turn, err)
	}
	seq := obs.Events.Seq()
	errs := q.Settle([]Settlement{
		{Lease: turn[0].ID, Result: &JobResult{JobID: 1}},
		{Lease: turn[1].ID, Result: &JobResult{JobID: 2}},
	})
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("settling live leases: %v", errs)
	}
	acked := 0
	for _, ev := range obs.Events.SinceTrace(trace, seq) {
		if ev.Kind == obs.EvJobAcked {
			acked++
		}
	}
	if acked != 2 {
		t.Fatalf("%d job.acked events for a settled turn of 2", acked)
	}

	stale, err := q.TryLease()
	if err != nil || stale.Job.ID != 3 {
		t.Fatalf("lease job 3: %+v, %v", stale, err)
	}
	settle(t, 2*time.Second, func() bool { return q.Stats().Pending == 1 })
	if errs := q.Settle([]Settlement{{Lease: stale.ID, Result: &JobResult{JobID: 3}}}); !errors.Is(errs[0], ErrUnknownLease) {
		t.Fatalf("settling a lapsed lease: %v, want ErrUnknownLease", errs[0])
	}
	var ids []int
	for _, r := range q.Results() {
		ids = append(ids, r.JobID)
	}
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("recorded results for jobs %v, want [1 2 3]", ids)
	}
	// Several TTLs on, the settled turn has not come back: only job 3's
	// redelivery is pending.
	time.Sleep(4 * ttl)
	if st := q.Stats(); st.Done != 2 || st.Pending != 1 || st.Redelivered != 1 {
		t.Fatalf("stats after settling = %+v, want 2 done, job 3 alone redelivered", st)
	}

	re, err := q.TryLease()
	if err != nil {
		t.Fatal(err)
	}
	q.Close()
	if errs := q.Settle([]Settlement{{Lease: re.ID, Result: &JobResult{JobID: 3}}}); !errors.Is(errs[0], ErrClosed) {
		t.Fatalf("settling on a closed queue: %v, want ErrClosed", errs[0])
	}
	if st := q.Stats(); st.Leased != 1 || len(q.Results()) != 0 {
		t.Fatalf("a refused settle touched the queue: %+v", st)
	}
}

func TestNackRedeliversThenDeadLetters(t *testing.T) {
	q := NewWithOptions(Options{Name: "nack-dead", MaxAttempts: 3})
	defer q.Close()
	if err := q.Push(testJob(7)); err != nil {
		t.Fatal(err)
	}
	for attempt := 1; attempt <= 3; attempt++ {
		ls, err := q.TryLease()
		if err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		if ls.Attempt != attempt {
			t.Fatalf("attempt = %d, want %d", ls.Attempt, attempt)
		}
		if err := q.Nack(ls.ID, "worker exploded"); err != nil {
			t.Fatal(err)
		}
	}
	// Attempts exhausted: dead-lettered, not redelivered and not dropped.
	if _, err := q.TryLease(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("lease after dead-letter: %v", err)
	}
	dead := q.DeadLetters()
	if len(dead) != 1 || dead[0].Job.ID != 7 || dead[0].Attempts != 3 || dead[0].Reason != "worker exploded" {
		t.Fatalf("dead letters = %+v", dead)
	}
	if st := q.Stats(); st.DeadLettered != 1 || st.Redelivered != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLeaseExpiryRedelivers(t *testing.T) {
	// A worker that leases a job and dies without acking must not lose it:
	// the reaper redelivers after the lease timeout.
	q := NewWithOptions(Options{Name: "expiry", LeaseTimeout: 30 * time.Millisecond, MaxAttempts: 5})
	defer q.Close()
	if err := q.Push(testJob(3)); err != nil {
		t.Fatal(err)
	}
	ls, err := q.TryLease()
	if err != nil {
		t.Fatal(err)
	}
	// "Crash": never ack. The job must come back with a bumped attempt.
	var re Lease
	settle(t, 2*time.Second, func() bool {
		var lerr error
		re, lerr = q.TryLease()
		return lerr == nil
	})
	if re.Job.ID != 3 || re.Attempt != 2 {
		t.Fatalf("redelivered lease = %+v", re)
	}
	// The stale lease cannot settle the redelivered job.
	if err := q.Ack(ls.ID); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("stale ack: %v", err)
	}
	if err := q.Ack(re.ID); err != nil {
		t.Fatal(err)
	}
	st := q.Stats()
	if st.Done != 1 || st.Redelivered != 1 || st.Leased != 0 || st.Pending != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestExtendKeepsLeaseAlive(t *testing.T) {
	q := NewWithOptions(Options{Name: "extend", LeaseTimeout: 40 * time.Millisecond})
	defer q.Close()
	if err := q.Push(testJob(4)); err != nil {
		t.Fatal(err)
	}
	ls, err := q.TryLease()
	if err != nil {
		t.Fatal(err)
	}
	deadline, err := q.Extend(ls.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if time.Until(deadline) < 4*time.Second {
		t.Fatalf("extended deadline only %v away", time.Until(deadline))
	}
	// Sleep well past the original timeout: the extension must keep the
	// reaper away.
	time.Sleep(120 * time.Millisecond)
	if _, err := q.TryLease(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("job redelivered despite extension: %v", err)
	}
	if err := q.Ack(ls.ID); err != nil {
		t.Fatalf("ack after extension: %v", err)
	}
}

func TestReaperRequeuesExpiredLease(t *testing.T) {
	// The reaper alone puts an expired lease back on the pending list — no
	// Push, Close or lease call in between — and the next TryLease gets it
	// at attempt 2.
	q := NewWithOptions(Options{Name: "wake", LeaseTimeout: 30 * time.Millisecond, MaxAttempts: 5})
	defer q.Close()
	if err := q.Push(testJob(8)); err != nil {
		t.Fatal(err)
	}
	if _, err := q.TryLease(); err != nil {
		t.Fatal(err)
	}
	settle(t, 2*time.Second, func() bool { return q.Stats().Pending == 1 })
	ls, err := q.TryLease()
	if err != nil || ls.Job.ID != 8 || ls.Attempt != 2 {
		t.Fatalf("lease after expiry = %+v, %v; want job 8 at attempt 2", ls, err)
	}
}

func TestReadFrameCap(t *testing.T) {
	read := func(input string, max int) ([]byte, error) {
		return readFrame(bufio.NewReaderSize(strings.NewReader(input), 16), max)
	}
	if got, err := read("hello\nworld\n", 64); err != nil || string(got) != "hello\n" {
		t.Fatalf("small frame = %q, %v", got, err)
	}
	// Oversized frame: error, and the reader resyncs to the next line.
	r := bufio.NewReaderSize(strings.NewReader(string(bytes.Repeat([]byte("x"), 100))+"\nnext\n"), 16)
	if _, err := readFrame(r, 32); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("oversized frame err = %v", err)
	}
	if got, err := readFrame(r, 32); err != nil || string(got) != "next\n" {
		t.Fatalf("frame after oversize = %q, %v", got, err)
	}
	// Oversized with no newline before EOF still errors.
	if _, err := read(string(bytes.Repeat([]byte("y"), 100)), 32); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("oversized at EOF err = %v", err)
	}
	// EOF mid-frame under the cap returns the partial frame with the error.
	if got, err := read("partial", 64); err == nil || string(got) != "partial" {
		t.Fatalf("partial frame = %q, %v", got, err)
	}
}

func TestTCPLeaseRoundtrip(t *testing.T) {
	q := NewWithOptions(Options{Name: "tcp-lease", LeaseTimeout: 5 * time.Second})
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
	if err := q.Push(testJob(11)); err != nil {
		t.Fatal(err)
	}
	ls, err := c.Lease()
	if err != nil {
		t.Fatal(err)
	}
	if ls.Job.ID != 11 || ls.Attempt != 1 || ls.ID == 0 {
		t.Fatalf("lease = %+v", ls)
	}
	if ttl := time.Until(ls.Deadline); ttl < 3*time.Second || ttl > 6*time.Second {
		t.Fatalf("lease ttl = %v, want ~5s", ttl)
	}
	deadline, err := c.Extend(ls.ID, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ttl := time.Until(deadline); ttl < 8*time.Second {
		t.Fatalf("extended ttl = %v, want ~10s", ttl)
	}
	if err := c.Report(JobResult{JobID: 11, Trials: 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.Ack(ls.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.Ack(ls.ID); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("double ack over TCP: %v", err)
	}
	if res := q.Results(); len(res) != 1 || res[0].JobID != 11 || res[0].Trials != 2 {
		t.Fatalf("results after Report = %+v", res)
	}

	// Nack path: redelivered with a bumped attempt.
	if err := q.Push(testJob(12)); err != nil {
		t.Fatal(err)
	}
	ls, err = c.Lease()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Nack(ls.ID, "transient"); err != nil {
		t.Fatal(err)
	}
	ls, err = c.Lease()
	if err != nil {
		t.Fatal(err)
	}
	if ls.Job.ID != 12 || ls.Attempt != 2 {
		t.Fatalf("redelivered lease = %+v", ls)
	}
	if err := c.Ack(ls.ID); err != nil {
		t.Fatal(err)
	}
}
