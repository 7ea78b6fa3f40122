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
// them and the trial budget (PushTests), and how a leased turn of jobs is
// explored and settled with whole outcomes (Worker.Do) — shared by sbd,
// cmd/sbexec, cmd/sbqueue and examples/distributed. An outcome is a pure
// function of (test, seed, trials), so FoldResults over each job's first
// result equals local execution.

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
// FoldResults folds over, each carrying its exploration seed and the
// pipeline's trial budget: by reference
// (corpus digest plus pair indices, resolved by the worker) when the
// pipeline's corpus is a stored artifact, with both programs inline
// otherwise. Every job carries trace, so worker and delivery events stitch
// back to the originating campaign.
func (p *Pipeline) PushTests(q *queue.Queue, tests []sched.ConcurrentTest, trace string) error {
	corpusDigest, _, _ := p.ArtifactDigests()
	seeds := p.exploreSeeds(len(tests))
	for i, ct := range tests {
		job := queue.Job{ID: i, Seed: seeds[i], Trials: p.Opts.Trials, Corpus: corpusDigest, Hint: ct.Hint, Pair: ct.Pair, Trace: trace}
		if corpusDigest == "" {
			job.Writer, job.Reader = ct.Writer, ct.Reader
		}
		if err := q.Push(job); err != nil {
			return fmt.Errorf("push job %d: %w", i, err)
		}
	}
	return nil
}

// TurnJobs is how many jobs an executor leases per turn — one lease and one
// settle, a frame each over TCP — unless CampaignEnv.Slice says otherwise.
const TurnJobs = 4

// Leaser is where a Worker leases turns from and settles them to:
// localLeaser on the queue in this process (sbd's executor), or a
// *queue.Client over TCP for a worker that joins from elsewhere (sbexec,
// the example's fleet; chaos-injectable through its dialer).
type Leaser interface {
	LeaseN(n int) ([]queue.Lease, error)
	Settle(items []queue.Settlement) ([]error, error)
	Nack(id uint64, reason string) error
	Extend(id uint64, d time.Duration) (time.Time, error)
}

// localLeaser leases straight from an in-process queue, non-blocking like
// the wire's lease op.
type localLeaser struct{ *queue.Queue }

func (l localLeaser) Settle(items []queue.Settlement) ([]error, error) {
	return l.Queue.Settle(items), nil
}

// keepTurn extends a turn's leases at half-TTL intervals until stopped, so
// a turn longer than the queue's lease timeout is not reaped out from
// under a live worker. One keeper serves the whole turn; a lease whose
// extend fails (expired, or the server unreachable) is dropped from it, and
// the keeper exits once none is left, so it never holds a shared client
// retrying leases that are already gone.
func keepTurn(lsr Leaser, leases []queue.Lease) (stop func()) {
	ttl := max(time.Until(leases[0].Deadline), 20*time.Millisecond)
	live := make([]uint64, len(leases))
	for i, ls := range leases {
		live[i] = ls.ID
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(ttl / 2)
		defer t.Stop()
		for len(live) > 0 {
			select {
			case <-done:
				return
			case <-t.C:
				// A lease gone is benign: its job redelivers and the fold
				// dedups.
				kept := live[:0]
				for _, id := range live {
					if _, err := lsr.Extend(id, 0); err == nil {
						kept = append(kept, id)
					}
				}
				live = kept
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

// NewWorker returns a worker exploring on env, each job with the trial
// budget it carries; name labels its results. resolve fills a by-reference
// job's programs (queue.Job.Resolve against the corpus artifact it names);
// with a nil resolver such jobs are nacked.
func NewWorker(env *exec.Env, name string, resolve func(job *queue.Job) error) *Worker {
	if resolve == nil {
		resolve = func(job *queue.Job) error {
			return fmt.Errorf("job %d references corpus artifact %.12s… but worker %s has no resolver", job.ID, job.Corpus, name)
		}
	}
	x := stage4Explorer(env, 0, detect.DefaultOptions()) // Do sets each job's seed and trials
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

// Do runs a turn's leases to settlement: resolve each job, explore it with
// the seed and trial budget it carries under one lease keeper for the whole
// turn, and settle every outcome (result recorded, lease released) in one
// Settle. It returns how many leases settled with a result and how many of
// those exercised their channel; every other lease was nacked — its job
// malformed (a trial budget not in 1..MaxTrials) or unresolvable, or its
// result never landed. Failures are contained to the job, never the
// process.
func (w *Worker) Do(lsr Leaser, leases []queue.Lease) (settled, exercised int) {
	held := make([]queue.Lease, 0, len(leases))
	for _, ls := range leases {
		if ls.Job.Trials <= 0 || ls.Job.Trials > MaxTrials {
			w.nack(lsr, ls, fmt.Sprintf("malformed job %d: trial budget %d", ls.Job.ID, ls.Job.Trials))
			continue
		}
		if !ls.Job.Inline() {
			if err := w.resolve(&ls.Job); err != nil {
				w.nack(lsr, ls, err.Error())
				continue
			}
		}
		held = append(held, ls)
	}
	if len(held) == 0 {
		return 0, 0
	}
	stopKeep := keepTurn(lsr, held)
	items := make([]queue.Settlement, len(held))
	errs := make([]error, len(held))
	hit := make([]bool, len(held))
	for i, ls := range held {
		job := ls.Job
		w.x.Seed, w.x.Trials = job.Seed, job.Trials
		// Tag this job's events with the originating campaign's trace, so a
		// distributed run's timeline reads end-to-end.
		w.x.Trace = job.Trace
		out := w.x.Explore(sched.ConcurrentTest{
			Writer: job.Writer, Reader: job.Reader, Hint: job.Hint, Pair: job.Pair,
		})
		hit[i] = out.Exercised
		payload, err := json.Marshal(&out)
		if err != nil {
			errs[i] = err
			continue
		}
		items[i] = queue.Settlement{Lease: ls.ID, Result: &queue.JobResult{
			JobID: job.ID, Trials: out.Trials, Outcome: payload, Worker: w.name}}
	}
	stopKeep()
	landed, err := lsr.Settle(items)
	for i, ls := range held {
		switch {
		case errs[i] != nil:
		case err != nil:
			errs[i] = err
		default:
			errs[i] = landed[i]
		}
		// ErrUnknownLease is benign: the lease expired and the job was
		// redelivered, but the result landed; the fold deduplicates by job ID.
		if errs[i] != nil && !errors.Is(errs[i], queue.ErrUnknownLease) {
			w.nack(lsr, ls, "settle failed: "+errs[i].Error())
			continue
		}
		settled++
		if hit[i] {
			exercised++
		}
	}
	return settled, exercised
}
