package queue

import (
	"testing"
	"time"

	"snowboard/internal/obs"
)

// jobStep is one expected job event: its kind, its attempt (a dead
// letter's attempts) and, if not empty, its reason.
type jobStep struct {
	kind    string
	attempt int
	reason  string
}

// wantHistory asserts that the job events on trace since seq are exactly
// steps, in order.
func wantHistory(t *testing.T, trace string, seq uint64, steps []jobStep) {
	t.Helper()
	got := obs.Events.SinceTrace(trace, seq)
	if len(got) != len(steps) {
		t.Fatalf("%d job events on the trace, want %d: %+v", len(got), len(steps), got)
	}
	for i, want := range steps {
		ev := got[i]
		attempt := ev.Attrs["attempt"]
		if ev.Kind == obs.EvJobDeadLetter {
			attempt = ev.Attrs["attempts"]
		}
		if ev.Kind != want.kind || attempt != want.attempt {
			t.Fatalf("event %d = %s@%v, want %s@%d", i, ev.Kind, attempt, want.kind, want.attempt)
		}
		if want.reason != "" && ev.Attrs["reason"] != want.reason {
			t.Fatalf("event %d (%s) reason = %v, want %q", i, ev.Kind, ev.Attrs["reason"], want.reason)
		}
	}
}

func TestDeadLetterHistoryOnTrace(t *testing.T) {
	// A dead letter's diagnosis is on its trace: every delivery attempt and
	// why each failed, not just the final reason the dead letter keeps.
	q := NewWithOptions(Options{Name: "tl-dead", MaxAttempts: 2})
	defer q.Close()
	j := testJob(21)
	j.Trace = obs.NewTraceID()
	seq := obs.Events.Seq()
	if err := q.Push(j); err != nil {
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
	if dead := q.DeadLetters(); len(dead) != 1 || dead[0].Attempts != 2 || dead[0].Reason != "sim crash" {
		t.Fatalf("dead letters = %+v, want job 21 after 2 attempts for \"sim crash\"", dead)
	}
	wantHistory(t, j.Trace, seq, []jobStep{
		{obs.EvJobLeased, 1, ""},
		{obs.EvJobNacked, 1, "sim crash"},
		{obs.EvJobLeased, 2, ""},
		{obs.EvJobNacked, 2, "sim crash"},
		{obs.EvJobDeadLetter, 2, "sim crash"},
	})
}

func TestExpiredLeaseAppearsInTimeline(t *testing.T) {
	// A worker that silently dies shows up as job.expired, so the history
	// distinguishes crashes (nacked) from hangs (expired).
	q := NewWithOptions(Options{Name: "tl-expire", LeaseTimeout: 20 * time.Millisecond, MaxAttempts: 1})
	defer q.Close()
	j := testJob(22)
	j.Trace = obs.NewTraceID()
	seq := obs.Events.Seq()
	if err := q.Push(j); err != nil {
		t.Fatal(err)
	}
	if _, err := q.TryLease(); err != nil {
		t.Fatal(err)
	}
	settle(t, 2*time.Second, func() bool { return q.Stats().DeadLettered == 1 })
	wantHistory(t, j.Trace, seq, []jobStep{
		{obs.EvJobLeased, 1, ""},
		{obs.EvJobExpired, 1, ""},
		{obs.EvJobDeadLetter, 1, "lease expired"},
	})
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
