package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"snowboard/internal/detect"
	"snowboard/internal/exec"
	"snowboard/internal/kernel"
	"snowboard/internal/obs"
	"snowboard/internal/par"
	"snowboard/internal/queue"
	"snowboard/internal/sched"
)

// This file is the one recipe of stage 4, whatever the front door: the
// explorer template, how tests become jobs carrying their seeds, trial
// budget, kernel version and adoption list (PushTests), how a pipeline
// runs a batch through its queue (runBatch, drain), how a leased turn is
// explored and settled with whole outcomes (Worker.Do), and how a worker
// joins a campaign it does not own (Worker.Join). An outcome is a pure
// function of (test, seed, trials, version, adoption list), all of them in
// the job (the list by digest), so the fold of each job's first result is
// the same whichever worker explored it.

// stage4Explorer is the explorer every Worker copies, one per kernel
// version: Algorithm 2 with the oracles opt enables and the host fsck,
// reporting each test's own segments and alias pairs. Worker.Do sets each
// job's seed, trials, adoption set and trace on it.
func stage4Explorer(env *exec.Env, opt detect.Options) sched.Explorer {
	return sched.Explorer{
		Env:           env,
		Mode:          sched.ModeSnowboard,
		Detect:        opt,
		Fsck:          func() []string { return env.K.FsckHost() },
		TrackSegments: true,
	}
}

// PushTests enqueues tests as one batch of jobs, each ID'd and seeded by
// its exploration unit — the pipeline's count of tests seeded before it —
// so a pipeline's batches continue on one queue and FoldSettled and
// FoldResults fold the batch pushed last. Each job carries both programs,
// its hints, its exploration seed, the pipeline's trial budget and kernel
// version and its batch's adoption list by digest — everything its
// outcome depends on, so a worker needs nothing but the queue's address.
// The list itself is pushed once, before the jobs (queue.PushList), and
// the jobs in one queue.Push. Every job carries trace, so worker and
// delivery events stitch back to the originating campaign. A batch whose
// adoption list is past queue.MaxAdoptBytes is refused before anything is
// pushed: it would not fit a lease frame.
func (p *Pipeline) PushTests(q *queue.Queue, tests []sched.ConcurrentTest, trace string) error {
	p.folding = nil
	list, err := queue.NewAdoptList(p.adoptable(tests))
	if err != nil {
		return fmt.Errorf("the batch's adoption list: %w", err)
	}
	var adopt string
	if list != nil {
		if err := q.PushList(list); err != nil {
			return fmt.Errorf("push adoption list: %w", err)
		}
		adopt = list.Digest
	}
	first := p.exploreUnits
	p.exploreUnits += len(tests)
	jobs := make([]queue.Job, len(tests))
	for i, ct := range tests {
		jobs[i] = queue.Job{ID: first + i, Seed: par.UnitSeed(p.Opts.Seed, par.StageExplore, first+i), Trials: p.Opts.Trials,
			Version: string(p.Env.Cfg.Version), Writer: ct.Writer, Reader: ct.Reader, Hint: ct.Hint, Pair: ct.Pair, Extra: ct.Extra,
			Adopt: adopt, Trace: trace}
	}
	if err := q.Push(jobs...); err != nil {
		return fmt.Errorf("push jobs %d..%d: %w", first, first+len(jobs)-1, err)
	}
	return nil
}

// runBatch runs every stage-4 batch, a local run's or a campaign's: pushed
// (PushTests), drained and folded as it settles (drain), finished by
// FoldResults. A campaign adds its delivery to the report; a local batch
// fails on a job no Worker explored, naming it.
func (p *Pipeline) runBatch(r *Report, tests []sched.ConcurrentTest) error {
	if len(tests) == 0 {
		return nil
	}
	q, ws := p.executors()
	if err := p.PushTests(q, tests, p.trace); err != nil {
		return err
	}
	c := p.camp
	if c != nil {
		c.expected.Add(int64(len(tests)))
		if c.env.ExecGate != nil {
			<-c.env.ExecGate
		}
	}
	if err := p.drain(r, tests, q, ws); err != nil {
		return err
	}
	dead := q.DeadLetters()
	sum, err := p.FoldResults(r, tests, q.Results(), dead)
	switch {
	case err != nil:
		return err
	case sum.Lost():
		return fmt.Errorf("jobs neither reported nor dead-lettered: %v", sum.Missing)
	case c != nil:
		r.addDelivery(sum)
	case len(dead) > 0: // only this batch's: an earlier one would have failed
		return fmt.Errorf("jobs %v dead-lettered (job %d: %s)", sum.DeadJobs, dead[0].Job.ID, dead[0].Reason)
	}
	return nil
}

// executors are the pipeline's queue — its campaign's, or its own — and
// its Workers, one per worker env exploring with Options.Detect: made with
// the first batch, closed by Close.
func (p *Pipeline) executors() (*queue.Queue, []*Worker) {
	if p.q == nil {
		name := "local"
		if c := p.camp; c != nil {
			p.q, name = c.env.Registry.Open(c.QueueName()), "sbd/"+c.ID
		} else {
			p.q = queue.NewWithOptions(queue.Options{Name: name})
		}
		for i, env := range p.workerEnvs(p.workers()) {
			w := NewWorker(env, fmt.Sprintf("%s/%d", name, i))
			w.detect = p.Opts.Detect
			p.execs = append(p.execs, w)
		}
	}
	return p.q, p.execs
}

// drain is the one in-process lease → Do → fold loop: each Worker, on a
// goroutine of its own, runs turns (Worker.Do) while a job is pending and
// waits while one is leased elsewhere, folding what has settled after
// each (FoldSettled, one at a time) until a fold fails or q has settled.
// A campaign adds its pause gate, fair turns, slice and Fault hook.
func (p *Pipeline) drain(r *Report, tests []sched.ConcurrentTest, q *queue.Queue, ws []*Worker) error {
	var (
		mu  sync.Mutex // one fold at a time; guards err
		err error
		wg  sync.WaitGroup
	)
	c, lsr, slice := p.camp, localLeaser{q}, TurnJobs
	if c != nil && c.env.Slice > 0 {
		slice = c.env.Slice
	}
	for _, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for st := q.Stats(); st.Pending+st.Leased > 0; st = q.Stats() {
				if st.Pending == 0 { // stragglers: another Worker's, a joined one's, a crashed one's
					time.Sleep(5 * time.Millisecond)
				} else {
					if c != nil {
						c.gate()
						if c.env.Turns != nil {
							c.env.Turns.Acquire(c.ID)
						}
					}
					w.leases, _ = lsr.LeaseN(w.leases[:0], slice) // refused only empty or closed: nothing leased
					held := w.leases[:0]
					for _, ls := range w.leases { // Fault: a crash walks away; the reaper redelivers
						if c == nil || c.env.Fault == nil || !c.env.Fault(ls.Job.ID, ls.Attempt) {
							held = append(held, ls)
						}
					}
					settled, exercised := w.Do(lsr, held)
					if c != nil {
						if c.env.Turns != nil {
							c.env.Turns.Release()
						}
						c.executed.Add(int64(settled))
						c.exercised.Add(int64(exercised))
					}
				}
				mu.Lock()
				if err == nil {
					err = p.FoldSettled(r, tests, q.Results())
				}
				failed := err != nil
				mu.Unlock()
				if failed {
					return
				}
			}
		}()
	}
	wg.Wait()
	return err
}

// TurnJobs is how many jobs an executor leases per turn — one lease and one
// settle, a frame each over TCP — unless CampaignEnv.Slice says otherwise.
const TurnJobs = 4

// mPoisoned counts the jobs workers nack as malformed, on every front door.
var mPoisoned = obs.C(obs.MWorkerPoisoned)

// Leaser is where a Worker leases turns from (into storage the caller
// keeps) and settles them to: localLeaser on the queue in this process (a
// pipeline's Workers), or a *queue.Client over TCP for a worker that
// joins from elsewhere (sbexec, the example's fleet; chaos-injectable).
type Leaser interface {
	LeaseN(dst []queue.Lease, n int) ([]queue.Lease, error)
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

// leaseKeeper extends a worker's turn's leases at half-TTL intervals, so
// a turn longer than the queue's lease timeout is not reaped out from
// under a live worker. One keeper serves a worker for its lifetime on one
// timer, which fires only when a turn outlasts half its lease: a lease
// whose extend fails (expired, or the server unreachable) is dropped, and
// the keeper rests once none is left, so it never holds a shared client
// retrying leases that are already gone.
type leaseKeeper struct {
	mu    sync.Mutex
	lsr   Leaser
	live  []uint64
	every time.Duration
	turn  uint64 // bumped by keepTurn and release, so a late extend changes nothing
	t     *time.Timer
}

// keepTurn keeps a turn's leases until release.
func (k *leaseKeeper) keepTurn(lsr Leaser, leases []queue.Lease) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.turn++
	k.lsr = lsr
	k.live = k.live[:0]
	for _, ls := range leases {
		k.live = append(k.live, ls.ID)
	}
	k.every = max(time.Until(leases[0].Deadline), 20*time.Millisecond) / 2
	if k.t == nil {
		k.t = time.AfterFunc(k.every, k.extend)
	} else {
		k.t.Reset(k.every)
	}
}

// release stops keeping the turn.
func (k *leaseKeeper) release() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.turn++
	k.live = k.live[:0]
	if k.t != nil {
		k.t.Stop()
	}
}

// extend is the timer's: one extend per live lease, made outside the lock
// so release never waits on the leaser, then the timer re-armed while a
// lease is left.
func (k *leaseKeeper) extend() {
	k.mu.Lock()
	turn, lsr, ids := k.turn, k.lsr, append([]uint64(nil), k.live...)
	k.mu.Unlock()
	// A lease gone is benign: its job redelivers and the fold dedups.
	kept := ids[:0]
	for _, id := range ids {
		if _, err := lsr.Extend(id, 0); err == nil {
			kept = append(kept, id)
		}
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.turn != turn {
		return
	}
	k.live = append(k.live[:0], kept...)
	if len(k.live) > 0 {
		k.t.Reset(k.every)
	}
}

// Worker executes queue-delivered jobs on private simulated-kernel
// environments, one per kernel version its jobs name. It is not safe for
// concurrent use: run one per goroutine.
type Worker struct {
	name   string
	env    *exec.Env // the env NewWorker was given: its owner's to close
	detect detect.Options
	x      map[kernel.Version]*sched.Explorer
	keep   leaseKeeper

	// A turn's storage, reused by the next: the leaser copies what Settle
	// records (queue.Queue.Settle, or the settle frame), so the outcomes'
	// encode buffer is free again once Settle returns.
	leases  []queue.Lease
	held    []queue.Lease
	items   []queue.Settlement
	results []queue.JobResult
	hit     []bool
	buf     []byte
}

// NewWorker returns a worker exploring each job with the trial budget and
// on the kernel version it carries, under every oracle; name labels its
// results. A job of env's version explores on env (nil: none is given); a
// job of any other version boots an env of that version on first use.
func NewWorker(env *exec.Env, name string) *Worker {
	return &Worker{name: name, env: env, detect: detect.DefaultOptions(), x: make(map[kernel.Version]*sched.Explorer)}
}

// explorer returns the worker's explorer for kernel v, booting an env of
// that version unless the worker was given one. Do sets each job's seed,
// trials, trace and adoption set on it.
func (w *Worker) explorer(v kernel.Version) *sched.Explorer {
	if x, ok := w.x[v]; ok {
		return x
	}
	env := w.env
	if env == nil || env.Cfg.Version != v {
		env = exec.NewEnv(kernel.Config{Version: v})
	}
	x := stage4Explorer(env, w.detect)
	w.x[v] = &x
	return &x
}

// Close stops the worker's lease keeper and closes the envs it booted;
// the one NewWorker was given stays its owner's.
func (w *Worker) Close() {
	w.keep.release()
	for v, x := range w.x {
		if x.Env != w.env {
			x.Env.Close()
		}
		delete(w.x, v)
	}
}

// nack hands a lease back with a reason, so the job redelivers (maybe to
// a healthier worker) or dead-letters with that reason — never vanishes.
func (w *Worker) nack(lsr Leaser, ls queue.Lease, reason string) {
	obs.Diag.Printf("worker %s: nacking job %d: %s", w.name, ls.Job.ID, reason)
	if err := lsr.Nack(ls.ID, reason); err != nil && !errors.Is(err, queue.ErrUnknownLease) {
		obs.Diag.Printf("worker %s: nack job %d: %v", w.name, ls.Job.ID, err)
	}
}

// Do runs a turn's leases to settlement: explore each job with the seed,
// trial budget, kernel version and adoption list it carries while the
// worker's lease keeper keeps the turn, and settle every outcome, in its
// binary form (result recorded, lease released), in one Settle. It returns how many leases
// settled with a result and how many of those exercised their channel;
// every other lease was nacked — its job malformed (a trial budget not in
// 1..MaxTrials, or an unknown kernel version; counted as worker.poisoned)
// or its result never landed. Failures are contained to the job, never
// the process.
func (w *Worker) Do(lsr Leaser, leases []queue.Lease) (settled, exercised int) {
	held := w.held[:0]
	for _, ls := range leases {
		_, err := kernel.ParseVersion(ls.Job.Version)
		if ls.Job.Trials <= 0 || ls.Job.Trials > MaxTrials {
			err = fmt.Errorf("trial budget %d", ls.Job.Trials)
		}
		if err != nil {
			mPoisoned.Inc()
			w.nack(lsr, ls, fmt.Sprintf("malformed job %d: %v", ls.Job.ID, err))
			continue
		}
		held = append(held, ls)
	}
	w.held = held
	if len(held) == 0 {
		return 0, 0
	}
	w.keep.keepTurn(lsr, held)
	n := len(held)
	items := slices.Grow(w.items[:0], n)[:n]
	results := slices.Grow(w.results[:0], n)[:n]
	hit := slices.Grow(w.hit[:0], n)[:n]
	// The turn's outcomes share one buffer, each result a capped slice of
	// it, until Settle copies them.
	buf := w.buf[:0]
	for i := range held {
		job := &held[i].Job
		x := w.explorer(kernel.Version(job.Version))
		x.Seed, x.Trials, x.KnownPMCs = job.Seed, job.Trials, held[i].Adopt.Known()
		// Tag this job's events with the originating campaign's trace, so a
		// distributed run's timeline reads end-to-end.
		x.Trace = job.Trace
		out := x.Explore(sched.ConcurrentTest{
			Writer: job.Writer, Reader: job.Reader, Hint: job.Hint, Pair: job.Pair, Extra: job.Extra,
		})
		hit[i] = out.Exercised
		start := len(buf)
		buf = out.Encode(buf)
		results[i] = queue.JobResult{JobID: job.ID, Trials: out.Trials, Outcome: buf[start:len(buf):len(buf)], Worker: w.name}
		items[i] = queue.Settlement{Lease: held[i].ID, Result: &results[i]}
	}
	w.keep.release()
	w.items, w.results, w.hit, w.buf = items, results, hit, buf
	landed, err := lsr.Settle(items)
	for i, ls := range held {
		failed := err
		if failed == nil {
			failed = landed[i]
		}
		// ErrUnknownLease is benign: the lease expired and the job was
		// redelivered, but the result landed; the fold deduplicates by job ID.
		if failed != nil && !errors.Is(failed, queue.ErrUnknownLease) {
			w.nack(lsr, ls, "settle failed: "+failed.Error())
			continue
		}
		settled++
		if hit[i] {
			exercised++
		}
	}
	return settled, exercised
}

// JoinPoll is how long Join waits before asking an empty queue again.
const JoinPoll = 20 * time.Millisecond

// Join is how a worker joins a campaign it does not own: it leases turns
// of up to turn jobs from lsr and runs each through Do until the queue
// closes or stays empty for longer than idle, and returns how many leases
// it settled with the error that ended it — nil for a closed or idle
// queue, else the lease's (an unknown queue, or a coordinator the client's
// retries could not reach; leased work redelivers elsewhere). A
// pipeline's own Workers drain its queue with Pipeline.drain.
func (w *Worker) Join(lsr Leaser, turn int, idle time.Duration) (settled int, err error) {
	idleSince := time.Now()
	for {
		w.leases, err = lsr.LeaseN(w.leases[:0], turn)
		switch {
		case errors.Is(err, queue.ErrEmpty) && time.Since(idleSince) <= idle:
			time.Sleep(JoinPoll)
		case errors.Is(err, queue.ErrEmpty), errors.Is(err, queue.ErrClosed):
			return settled, nil
		case err != nil:
			return settled, err
		default:
			idleSince = time.Now()
			n, _ := w.Do(lsr, w.leases)
			settled += n
		}
	}
}
