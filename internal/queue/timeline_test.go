package queue

import (
	"testing"
	"time"
)

// wants asserts that the timeline matches the expected sequence of
// (what, attempt) steps.
func wantTimeline(t *testing.T, tl []JobEvent, steps ...JobEvent) {
	t.Helper()
	if len(tl) != len(steps) {
		t.Fatalf("timeline has %d events, want %d: %+v", len(tl), len(steps), tl)
	}
	for i, want := range steps {
		if tl[i].What != want.What || tl[i].Attempt != want.Attempt {
			t.Fatalf("timeline[%d] = %s@%d, want %s@%d",
				i, tl[i].What, tl[i].Attempt, want.What, want.Attempt)
		}
		if tl[i].At.IsZero() {
			t.Fatalf("timeline[%d] has a zero timestamp", i)
		}
		if want.Reason != "" && tl[i].Reason != want.Reason {
			t.Fatalf("timeline[%d] reason = %q, want %q", i, tl[i].Reason, want.Reason)
		}
	}
}

func TestDeadLetterCarriesFullTimeline(t *testing.T) {
	// A dead letter is a diagnosis artifact: it must show every delivery
	// attempt and why each failed, not just the final reason.
	q := NewWithOptions(Options{Name: "tl-dead", MaxAttempts: 2})
	defer q.Close()
	if err := q.Push(testJob(21)); err != nil {
		t.Fatal(err)
	}
	for attempt := 1; attempt <= 2; attempt++ {
		ls, err := q.TryLease()
		if err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		if err := q.Nack(ls.ID, "sim crash"); err != nil {
			t.Fatal(err)
		}
	}
	dead := q.DeadLetters()
	if len(dead) != 1 {
		t.Fatalf("dead letters = %d, want 1", len(dead))
	}
	wantTimeline(t, dead[0].Timeline,
		JobEvent{What: "pushed", Attempt: 0},
		JobEvent{What: "leased", Attempt: 1},
		JobEvent{What: "nacked", Attempt: 1, Reason: "sim crash"},
		JobEvent{What: "leased", Attempt: 2},
		JobEvent{What: "nacked", Attempt: 2, Reason: "sim crash"},
		JobEvent{What: "dead-lettered", Attempt: 2, Reason: "sim crash"},
	)
}

func TestExpiredLeaseAppearsInTimeline(t *testing.T) {
	// A worker that silently dies shows up as "expired" steps, so the dead
	// letter distinguishes crashes (nacked) from hangs (expired).
	q := NewWithOptions(Options{Name: "tl-expire", LeaseTimeout: 20 * time.Millisecond, MaxAttempts: 1})
	defer q.Close()
	if err := q.Push(testJob(22)); err != nil {
		t.Fatal(err)
	}
	if _, err := q.TryLease(); err != nil {
		t.Fatal(err)
	}
	settle(t, 2*time.Second, func() bool { return q.Stats().DeadLettered == 1 })
	dead := q.DeadLetters()
	wantTimeline(t, dead[0].Timeline,
		JobEvent{What: "pushed", Attempt: 0},
		JobEvent{What: "leased", Attempt: 1},
		JobEvent{What: "expired", Attempt: 1},
		JobEvent{What: "dead-lettered", Attempt: 1, Reason: "lease expired"},
	)
}

func TestJobTraceRoundTripsWire(t *testing.T) {
	// The campaign trace ID survives the job codec, so remote workers can
	// stitch their spans to the coordinator's flight recorder.
	j := testJob(23)
	j.Trace = "deadbeef00112233"
	data, err := EncodeJob(j)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJob(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != j.Trace {
		t.Fatalf("trace = %q, want %q", got.Trace, j.Trace)
	}
	// Jobs from older v2 peers simply have no trace — not an error.
	plain, err := EncodeJob(testJob(24))
	if err != nil {
		t.Fatal(err)
	}
	got, err = DecodeJob(plain)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != "" {
		t.Fatalf("traceless job decoded with trace %q", got.Trace)
	}
}

func TestJobTraceOverTCP(t *testing.T) {
	q := NewWithOptions(Options{Name: "tl-tcp"})
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

	j := testJob(25)
	j.Trace = "cafe0123cafe0123"
	if err := q.Push(j); err != nil {
		t.Fatal(err)
	}
	ls, err := c.Lease()
	if err != nil {
		t.Fatal(err)
	}
	if ls.Job.Trace != j.Trace {
		t.Fatalf("leased trace = %q, want %q", ls.Job.Trace, j.Trace)
	}
	if err := c.Ack(ls.ID); err != nil {
		t.Fatal(err)
	}
}

func TestTimelineBranchesNeverAlias(t *testing.T) {
	// Timelines branch at requeue and dead-letter: the same history flows
	// into both the archived DeadJob and (on earlier attempts) a requeued
	// pending copy. Built with a plain append over shared spare capacity,
	// a later attempt's event could overwrite an archived one. Drive a
	// job through nack -> redeliver -> dead-letter and assert the
	// timeline captured earlier never changes underneath the caller.
	q := NewWithOptions(Options{Name: "tl-alias", MaxAttempts: 2})
	defer q.Close()
	if err := q.Push(testJob(28)); err != nil {
		t.Fatal(err)
	}
	ls, err := q.TryLease()
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Nack(ls.ID, "first failure"); err != nil {
		t.Fatal(err)
	}
	// Redelivery, then exhaustion.
	ls, err = q.TryLease()
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Nack(ls.ID, "second failure"); err != nil {
		t.Fatal(err)
	}

	dead := q.DeadLetters()
	if len(dead) != 1 {
		t.Fatalf("dead letters = %d, want 1", len(dead))
	}
	archived := dead[0].Timeline
	snapshot := append([]JobEvent(nil), archived...)

	// A caller appending to — or rewriting elements of — its returned
	// copy must never reach the queue's archive.
	_ = append(archived, JobEvent{What: "forged", Attempt: 9})
	for i := range archived {
		archived[i].What = "tampered"
	}

	fresh := q.DeadLetters()[0].Timeline
	wantTimeline(t, fresh,
		JobEvent{What: "pushed", Attempt: 0},
		JobEvent{What: "leased", Attempt: 1},
		JobEvent{What: "nacked", Attempt: 1, Reason: "first failure"},
		JobEvent{What: "leased", Attempt: 2},
		JobEvent{What: "nacked", Attempt: 2, Reason: "second failure"},
		JobEvent{What: "dead-lettered", Attempt: 2, Reason: "second failure"},
	)
	for i := range fresh {
		if fresh[i].What != snapshot[i].What {
			t.Fatalf("archived timeline[%d] changed from %q to %q after caller mutation",
				i, snapshot[i].What, fresh[i].What)
		}
	}
}

func TestStatsOldestLease(t *testing.T) {
	q := NewWithOptions(Options{Name: "tl-oldest"})
	defer q.Close()
	if st := q.Stats(); st.OldestLease != 0 {
		t.Fatalf("idle OldestLease = %v, want 0", st.OldestLease)
	}
	if err := q.Push(testJob(27)); err != nil {
		t.Fatal(err)
	}
	ls, err := q.TryLease()
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if st := q.Stats(); st.OldestLease <= 0 {
		t.Fatalf("OldestLease = %v with an outstanding lease, want > 0", st.OldestLease)
	}
	if err := q.Ack(ls.ID); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.OldestLease != 0 {
		t.Fatalf("OldestLease after ack = %v, want 0", st.OldestLease)
	}
}
