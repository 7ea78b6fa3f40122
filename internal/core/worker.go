package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"snowboard/internal/detect"
	"snowboard/internal/exec"
	"snowboard/internal/kernel"
	"snowboard/internal/obs"
	"snowboard/internal/par"
	"snowboard/internal/pmc"
	"snowboard/internal/queue"
	"snowboard/internal/sched"
)

// This file is the one recipe of stage 4, local or queue-delivered: the
// explorer template, the per-test seeds, the set incidental adoption picks
// from, how tests become jobs carrying them with the trial budget and
// kernel version (PushTests), how a leased turn of jobs is explored and
// settled with whole outcomes (Worker.Do), and how a worker joins a
// campaign it does not own (Worker.Join) — shared by sbd, cmd/sbexec,
// `snowboard -listen` and examples/distributed. An outcome is a pure
// function of (test, seed, trials, version, adoption list), all of them in
// the job, so FoldResults over each job's first result equals local
// execution.

// stage4Explorer is the explorer both ExecuteTests' fleet and queue
// workers copy: Algorithm 2 with the suite's oracles and the host fsck,
// reporting each test's own segments and alias pairs. Each sets the PMCs a
// test may adopt (adoptionSet) and the trace its events go to.
func stage4Explorer(env *exec.Env, trials int, opt detect.Options) sched.Explorer {
	return sched.Explorer{
		Env:           env,
		Trials:        trials,
		Mode:          sched.ModeSnowboard,
		Detect:        opt,
		Fsck:          func() []string { return env.K.FsckHost() },
		TrackSegments: true,
	}
}

// adoptionSet is the set a batch's adoption list (Pipeline.adoptable)
// builds for the explorer's KnownPMCs: none for an empty list, so neither
// the lookup nor the adopted PMCs' preemption points run.
func adoptionSet(adopt []pmc.PMC) *pmc.Set {
	if len(adopt) == 0 {
		return nil
	}
	return pmc.SetOf(adopt)
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

// PushTests enqueues tests as one batch of jobs, each ID'd by its
// exploration unit — the pipeline's count of tests seeded before it — so
// the IDs of a campaign's batches continue on one queue and FoldResults
// folds the batch pushed last. Each job carries both programs, its hints,
// its exploration seed, the pipeline's trial budget and kernel version and
// the batch's adoption list — everything its outcome depends on, so a
// worker needs nothing but the queue's address. Every job carries trace,
// so worker and delivery events stitch back to the originating campaign.
// A batch whose adoption list is past queue.MaxAdoptBytes is refused before
// anything is pushed: its jobs would not fit a lease frame.
func (p *Pipeline) PushTests(q *queue.Queue, tests []sched.ConcurrentTest, trace string) error {
	adopt := p.adoptable(tests)
	if n := queue.PMCList(adopt).EncodedLen(); n > queue.MaxAdoptBytes {
		return fmt.Errorf("the batch may adopt %d PMCs, %d bytes in every job, past the %d a job carries",
			len(adopt), n, queue.MaxAdoptBytes)
	}
	first := p.exploreUnits
	seeds := p.exploreSeeds(len(tests))
	for i, ct := range tests {
		job := queue.Job{ID: first + i, Seed: seeds[i], Trials: p.Opts.Trials, Version: string(p.Env.Cfg.Version),
			Writer: ct.Writer, Reader: ct.Reader, Hint: ct.Hint, Pair: ct.Pair, Extra: ct.Extra, Adopt: adopt, Trace: trace}
		if err := q.Push(job); err != nil {
			return fmt.Errorf("push job %d: %w", job.ID, err)
		}
	}
	return nil
}

// TurnJobs is how many jobs an executor leases per turn — one lease and one
// settle, a frame each over TCP — unless CampaignEnv.Slice says otherwise.
const TurnJobs = 4

// mPoisoned counts the jobs workers nack as malformed, on every front door.
var mPoisoned = obs.C(obs.MWorkerPoisoned)

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

// Worker executes queue-delivered jobs on private simulated-kernel
// environments, one per kernel version its jobs name. It is not safe for
// concurrent use: run one per goroutine.
type Worker struct {
	name string
	env  *exec.Env // the env NewWorker was given: its owner's to close
	x    map[kernel.Version]*sched.Explorer

	// adopt is the last adoption list a job carried and known the set it
	// builds: the jobs of a batch share one list, so it is built once per
	// batch.
	adopt []pmc.PMC
	known *pmc.Set
}

// NewWorker returns a worker exploring each job with the trial budget and
// on the kernel version it carries; name labels its results. A job of
// env's version explores on env (nil: none is given); a job of any other
// version boots an env of that version on first use, for Close to close.
func NewWorker(env *exec.Env, name string) *Worker {
	return &Worker{name: name, env: env, x: make(map[kernel.Version]*sched.Explorer)}
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
	x := stage4Explorer(env, 0, detect.DefaultOptions())
	w.x[v] = &x
	return &x
}

// Close closes the envs the worker booted; the one NewWorker was given
// stays its owner's.
func (w *Worker) Close() {
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

// adoption returns the adoption set of a job's list, building it when the
// list differs from the last job's.
func (w *Worker) adoption(adopt []pmc.PMC) *pmc.Set {
	if !slices.Equal(adopt, w.adopt) {
		w.adopt, w.known = adopt, adoptionSet(adopt)
	}
	return w.known
}

// Do runs a turn's leases to settlement: explore each job with the seed,
// trial budget, kernel version and adoption list it carries under one
// lease keeper for the whole turn, and settle every outcome, in its binary
// form (result recorded, lease released), in one Settle. It returns how many leases
// settled with a result and how many of those exercised their channel;
// every other lease was nacked — its job malformed (a trial budget not in
// 1..MaxTrials, or an unknown kernel version; counted as worker.poisoned)
// or its result never landed. Failures are contained to the job, never
// the process.
func (w *Worker) Do(lsr Leaser, leases []queue.Lease) (settled, exercised int) {
	held := make([]queue.Lease, 0, len(leases))
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
	if len(held) == 0 {
		return 0, 0
	}
	stopKeep := keepTurn(lsr, held)
	items := make([]queue.Settlement, len(held))
	results := make([]queue.JobResult, len(held))
	hit := make([]bool, len(held))
	// The turn's outcomes share one buffer, each result a capped slice of
	// it: a settled result is kept (Queue.Settle) and never written.
	var buf []byte
	for i := range held {
		job := &held[i].Job
		x := w.explorer(kernel.Version(job.Version))
		x.Seed, x.Trials, x.KnownPMCs = job.Seed, job.Trials, w.adoption(job.Adopt)
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
	stopKeep()
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

// joinPoll is how long Join waits before asking an empty queue again.
const joinPoll = 20 * time.Millisecond

// Join is how a worker joins a campaign it does not own: it leases turns
// of up to turn jobs from lsr and runs each through Do until the queue
// closes or stays empty for longer than idle, and returns how many leases
// it settled with the error that ended it — nil for a closed or idle
// queue, else the lease's (an unknown queue, or a coordinator the client's
// retries could not reach; leased work redelivers elsewhere).
// Campaign.executeLoop, which owns its queue and takes fair turns, keeps a
// loop of its own.
func (w *Worker) Join(lsr Leaser, turn int, idle time.Duration) (settled int, err error) {
	idleSince := time.Now()
	for {
		leases, err := lsr.LeaseN(turn)
		switch {
		case errors.Is(err, queue.ErrEmpty) && time.Since(idleSince) <= idle:
			time.Sleep(joinPoll)
		case errors.Is(err, queue.ErrEmpty), errors.Is(err, queue.ErrClosed):
			return settled, nil
		case err != nil:
			return settled, err
		default:
			idleSince = time.Now()
			n, _ := w.Do(lsr, leases)
			settled += n
		}
	}
}
