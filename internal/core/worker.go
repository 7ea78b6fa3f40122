package core

import (
	"errors"
	"fmt"
	"time"

	"snowboard/internal/detect"
	"snowboard/internal/exec"
	"snowboard/internal/obs"
	"snowboard/internal/queue"
	"snowboard/internal/sched"
)

// This file is the one definition of queue-delivered stage 4, shared by
// sbd's campaign executor, cmd/sbexec, cmd/sbqueue and
// examples/distributed: how tests become jobs (PushTests), how a job's
// seed is derived (JobSeed), and how one leased job is explored, reported
// and settled (Worker.Do). Any copy of a job's result is byte-identical
// because it is computed here and nowhere else, which is what makes the
// exactly-once fold (AggregateResults) sound.

// JobSeed derives a job's exploration seed from its ID alone, never from
// the worker or the delivery attempt, so placement and redelivery cannot
// change a result.
func JobSeed(jobID int) int64 { return int64(jobID)*1009 + 1 }

// PushTests enqueues tests as jobs 0..len(tests)-1, the ID space
// AggregateResults folds over: by reference (corpus digest plus pair
// indices, resolved by the worker) when corpusDigest is set, with both
// programs inline otherwise. Every job carries trace, so worker spans and
// delivery events stitch back to the originating campaign.
func PushTests(q *queue.Queue, tests []sched.ConcurrentTest, corpusDigest, trace string) error {
	for i, ct := range tests {
		job := queue.Job{ID: i, Hint: ct.Hint, Pair: ct.Pair, Trace: trace}
		if corpusDigest != "" {
			job.Corpus = corpusDigest
		} else {
			job.Writer, job.Reader = ct.Writer, ct.Reader
		}
		if err := q.Push(job); err != nil {
			return fmt.Errorf("push job %d: %w", i, err)
		}
	}
	return nil
}

// Leaser is where a Worker leases jobs from and settles them to: a
// *queue.Client over TCP (the production path, chaos-injectable through
// its dialer) or localLeaser in-process.
type Leaser interface {
	Lease() (queue.Lease, error)
	Ack(id uint64) error
	Nack(id uint64, reason string) error
	Extend(id uint64, d time.Duration) (time.Time, error)
	Report(res queue.JobResult) error
	Close() error
}

// localLeaser leases straight from an in-process queue, non-blocking like
// the wire's lease op; closing it leaves the queue open.
type localLeaser struct{ *queue.Queue }

func (l localLeaser) Lease() (queue.Lease, error) { return l.TryLease() }
func (l localLeaser) Close() error                { return nil }

// keepLease extends a lease at half-TTL intervals until stopped, so
// explorations longer than the queue's lease timeout are not reaped out
// from under a live worker.
func keepLease(lsr Leaser, ls queue.Lease) (stop func()) {
	ttl := max(time.Until(ls.Deadline), 20*time.Millisecond)
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(ttl / 2)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if _, err := lsr.Extend(ls.ID, 0); err != nil {
					// Lease gone (expired or settled); the fold dedups.
					return
				}
			}
		}
	}()
	return func() { close(done) }
}

// Worker executes queue-delivered jobs on a private simulated-kernel
// environment. It is not safe for concurrent use: run one per goroutine.
type Worker struct {
	name    string
	x       *sched.Explorer
	resolve func(job *queue.Job) error
}

// NewWorker returns a worker exploring on env with the given trial budget;
// name labels its results. resolve fills a by-reference job's programs
// (queue.Job.Resolve against the corpus artifact it names); with a nil
// resolver such jobs are nacked.
func NewWorker(env *exec.Env, trials int, name string, resolve func(job *queue.Job) error) *Worker {
	if resolve == nil {
		resolve = func(job *queue.Job) error {
			return fmt.Errorf("job %d references corpus artifact %.12s… but worker %s has no resolver", job.ID, job.Corpus, name)
		}
	}
	return &Worker{name: name, resolve: resolve, x: &sched.Explorer{
		Env:    env,
		Trials: trials,
		Mode:   sched.ModeSnowboard,
		Detect: detect.DefaultOptions(),
		Fsck:   func() []string { return env.K.FsckHost() },
	}}
}

// nack hands a lease back with a reason, so the job redelivers (maybe to
// a healthier worker) or dead-letters with that reason — never vanishes.
func (w *Worker) nack(lsr Leaser, ls queue.Lease, reason string) {
	obs.Diag.Printf("worker %s: nacking job %d: %s", w.name, ls.Job.ID, reason)
	if err := lsr.Nack(ls.ID, reason); err != nil && !errors.Is(err, queue.ErrUnknownLease) {
		obs.Diag.Printf("worker %s: nack job %d: %v", w.name, ls.Job.ID, err)
	}
}

// Do runs one lease to settlement: resolve the job, explore it under a
// kept-alive lease with the job-derived seed, report the result, and ack.
// It returns the exploration outcome and whether a result was reported;
// false means the job was nacked instead — unresolvable, or its report
// never landed. Failures are contained to the job, never the process.
func (w *Worker) Do(lsr Leaser, ls queue.Lease) (sched.Outcome, bool) {
	job := ls.Job
	if !job.Inline() {
		if err := w.resolve(&job); err != nil {
			w.nack(lsr, ls, err.Error())
			return sched.Outcome{}, false
		}
	}
	stopKeep := keepLease(lsr, ls)
	w.x.Seed = JobSeed(job.ID)
	// Tag this job's spans and events with the originating campaign's
	// trace, so a distributed run's timeline reads end-to-end.
	w.x.Trace = job.Trace
	out := w.x.Explore(sched.ConcurrentTest{
		Writer: job.Writer, Reader: job.Reader, Hint: job.Hint, Pair: job.Pair,
	})
	stopKeep()
	res := queue.JobResult{JobID: job.ID, Trials: out.Trials, Exercised: out.Exercised, Worker: w.name}
	for _, is := range out.Issues {
		res.IssueIDs = append(res.IssueIDs, is.ID())
		if is.BugID != 0 {
			res.BugIDs = append(res.BugIDs, is.BugID)
		}
	}
	if err := lsr.Report(res); err != nil {
		w.nack(lsr, ls, "report failed: "+err.Error())
		return out, false
	}
	if err := lsr.Ack(ls.ID); err != nil && !errors.Is(err, queue.ErrUnknownLease) {
		// ErrUnknownLease is benign: the lease expired and the job was
		// redelivered; the fold deduplicates by job ID.
		obs.Diag.Printf("worker %s: ack job %d: %v", w.name, job.ID, err)
	}
	return out, true
}
