package queue

import (
	"testing"
	"time"
)

// TestAwaitWakesOnEveryChange holds a waiter in Await while one change a
// drainer watches happens — a push, a lease, a settle, a nack, a reaped
// lease, a dead letter or a close — and wants it woken with the Stats
// that change left. Each waiter is first seen blocked, so a change that
// signalled nothing would leave it waiting out the deadline.
func TestAwaitWakesOnEveryChange(t *testing.T) {
	leased := func(q *Queue) uint64 {
		if err := q.Push(testJob(1)); err != nil {
			t.Fatal(err)
		}
		ls, err := q.TryLease()
		if err != nil {
			t.Fatal(err)
		}
		return ls.ID
	}
	for _, c := range []struct {
		name   string
		opts   Options
		setup  func(q *Queue) uint64 // a lease to change, when the case needs one
		change func(q *Queue, id uint64)
		want   Stats
	}{
		{"push", Options{}, nil, func(q *Queue, _ uint64) { q.Push(testJob(1)) }, Stats{Pending: 1}},
		{"lease", Options{}, func(q *Queue) uint64 { q.Push(testJob(1)); return 0 },
			func(q *Queue, _ uint64) { q.TryLease() }, Stats{Leased: 1}},
		{"settle", Options{}, leased, func(q *Queue, id uint64) {
			q.Settle([]Settlement{{Lease: id, Result: &JobResult{JobID: 1}}})
		}, Stats{Done: 1}},
		{"nack", Options{}, leased, func(q *Queue, id uint64) { q.Nack(id, "") }, Stats{Pending: 1, Redelivered: 1}},
		// Nothing is done to the lease: the reaper takes it back.
		{"reaper", Options{LeaseTimeout: 100 * time.Millisecond}, leased, nil, Stats{Pending: 1, Redelivered: 1}},
		{"dead letter", Options{MaxAttempts: 1}, leased, func(q *Queue, id uint64) { q.Nack(id, "") }, Stats{DeadLettered: 1}},
		{"close", Options{}, nil, func(q *Queue, _ uint64) { q.Close() }, Stats{}},
	} {
		t.Run(c.name, func(t *testing.T) {
			q := NewWithOptions(c.opts)
			defer q.Close()
			var id uint64
			if c.setup != nil {
				id = c.setup(q)
			}
			woke := make(chan Stats, 1)
			go func(st Stats) { woke <- q.Await(st) }(q.Stats())
			select {
			case st := <-woke:
				t.Fatalf("Await returned %+v before any change", st)
			case <-time.After(20 * time.Millisecond):
			}
			if c.change != nil {
				c.change(q, id)
			}
			select {
			case st := <-woke:
				if st != c.want {
					t.Fatalf("Await woke with %+v, want %+v", st, c.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the change woke no waiter")
			}
		})
	}
}
