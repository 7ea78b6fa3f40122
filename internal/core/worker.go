package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"snowboard/internal/detect"
	"snowboard/internal/exec"
	"snowboard/internal/obs"
	"snowboard/internal/par"
	"snowboard/internal/queue"
	"snowboard/internal/sched"
)

// This file is the one recipe of stage 4, local or queue-delivered: the
// explorer template, the per-test seeds, how tests become jobs carrying
// them (PushTests), and how a leased job is explored, reported whole and
// settled (Worker.Do) — shared by sbd, cmd/sbexec, cmd/sbqueue and
// examples/distributed. An outcome is a pure function of (test, seed), so
// FoldResults over each job's first result equals local execution.

// stage4Explorer is the explorer both ExecuteTests' fleet and queue
// workers copy: Algorithm 2 with the suite's oracles and the host fsck.
func stage4Explorer(env *exec.Env, trials int, opt detect.Options) sched.Explorer {
	return sched.Explorer{
		Env:    env,
		Trials: trials,
		Mode:   sched.ModeSnowboard,
		Detect: opt,
		Fsck:   func() []string { return env.K.FsckHost() },
	}
}

// exploreSeeds draws the next n per-test exploration seeds, the same
// whether the tests then run here or travel through a queue.
func (p *Pipeline) exploreSeeds(n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = par.UnitSeed(p.Opts.Seed, par.StageExplore, p.exploreUnits+i)
	}
	p.exploreUnits += n
	return seeds
}

// PushTests enqueues tests as jobs 0..len(tests)-1, the ID space
// FoldResults folds over, each carrying its exploration seed: by reference
// (corpus digest plus pair indices, resolved by the worker) when the
// pipeline's corpus is a stored artifact, with both programs inline
// otherwise. Every job carries trace, so worker and delivery events stitch
// back to the originating campaign.
func (p *Pipeline) PushTests(q *queue.Queue, tests []sched.ConcurrentTest, trace string) error {
	corpusDigest, _, _ := p.ArtifactDigests()
	seeds := p.exploreSeeds(len(tests))
	for i, ct := range tests {
		job := queue.Job{ID: i, Seed: seeds[i], Corpus: corpusDigest, Hint: ct.Hint, Pair: ct.Pair, Trace: trace}
		if corpusDigest == "" {
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
	x := stage4Explorer(env, trials, detect.DefaultOptions())
	return &Worker{name: name, resolve: resolve, x: &x}
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
// kept-alive lease with the seed the job carries, report the whole outcome,
// and ack. It returns the outcome and whether a result was reported; false
// means the job was nacked instead — unresolvable, or its report never
// landed. Failures are contained to the job, never the process.
func (w *Worker) Do(lsr Leaser, ls queue.Lease) (sched.Outcome, bool) {
	job := ls.Job
	if !job.Inline() {
		if err := w.resolve(&job); err != nil {
			w.nack(lsr, ls, err.Error())
			return sched.Outcome{}, false
		}
	}
	stopKeep := keepLease(lsr, ls)
	w.x.Seed = job.Seed
	// Tag this job's events with the originating campaign's trace, so a
	// distributed run's timeline reads end-to-end.
	w.x.Trace = job.Trace
	out := w.x.Explore(sched.ConcurrentTest{
		Writer: job.Writer, Reader: job.Reader, Hint: job.Hint, Pair: job.Pair,
	})
	stopKeep()
	payload, err := json.Marshal(&out)
	if err == nil {
		err = lsr.Report(queue.JobResult{JobID: job.ID, Trials: out.Trials, Outcome: payload, Worker: w.name})
	}
	if err != nil {
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
