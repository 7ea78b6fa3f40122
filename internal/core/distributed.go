package core

import (
	"bytes"
	"fmt"
	"sort"

	"snowboard/internal/queue"
	"snowboard/internal/sched"
)

// DistSummary is the distributed-mode portion of a campaign report: the
// delivery accounting of every worker JobResult plus the queue's
// dead-letter list, summed over the batches the campaign pushed, and what
// the fold of those results added to the report.
// At-least-once delivery means a redelivered job can report more than once;
// each job is counted exactly once here, and because a job carries its
// seed, every copy of a job's result is identical — so the summary is
// byte-for-byte the same whether or not any worker crashed mid-campaign.
type DistSummary struct {
	Expected   int      `json:"expected"`             // jobs enqueued
	Reported   int      `json:"reported"`             // distinct jobs with a result
	Duplicates int      `json:"duplicates,omitempty"` // redelivered copies folded away
	Exercised  int      `json:"exercised"`            // folded jobs whose PMC channel occurred
	Trials     int      `json:"trials"`               // interleaving trials, each job counted once
	BugIDs     []int    `json:"bug_ids,omitempty"`    // the folded report's Table 2 ids, sorted
	IssueIDs   []string `json:"issue_ids,omitempty"`  // the folded report's issue ids, sorted
	DeadJobs   []int    `json:"dead_jobs,omitempty"`  // job IDs that exhausted delivery attempts
	Missing    []int    `json:"missing,omitempty"`    // job IDs neither reported nor dead-lettered
}

// Lost reports whether any job was silently lost: neither reported nor
// accounted for on the dead-letter list. Under leased delivery this should
// always be false once the queue settles.
func (s *DistSummary) Lost() bool { return len(s.Missing) > 0 }

// dead counts the dead-lettered jobs s names; a nil summary names none.
func (s *DistSummary) dead() int {
	if s == nil {
		return 0
	}
	return len(s.DeadJobs)
}

// delivery is the accounting of one batch of a distributed run as its
// results settle: each of its jobs (IDs first.., as enqueued by PushTests)
// counts exactly once however many times the queue redelivered it. The
// first result per job ID is representative (any copy is — see
// DistSummary) and reaches the fold in job order; later copies only bump
// Duplicates, a result naming no job of the batch is dropped, and
// dead-lettered jobs of the batch are surfaced so a poisoned job never
// silently leaves the report. A result that settles ahead of an earlier
// job is held, its outcome copied, until that job settles or the batch
// does.
type delivery struct {
	first int
	sum   DistSummary
	state []uint8 // by job index: jobSeen, jobDead
	held  map[int]queue.JobResult
	next  int // the lowest job index not folded yet
}

// Job states in delivery.state.
const (
	jobSeen = 1 << iota // a result was taken
	jobDead             // dead-lettered
)

func newDelivery(first, n int) *delivery {
	return &delivery{first: first, sum: DistSummary{Expected: n}, state: make([]uint8, n)}
}

// take accounts for a drain of results and folds every job whose
// predecessors have all been folded.
func (d *delivery) take(results []queue.JobResult, fold func(queue.JobResult) error) error {
	for _, res := range results {
		i := res.JobID - d.first
		switch {
		case i < 0 || i >= len(d.state):
		case d.state[i]&jobSeen != 0:
			d.sum.Duplicates++
		case i != d.next:
			d.state[i] |= jobSeen
			d.sum.Reported++
			// Held past this drain: the queue lends outcomes only until
			// its next one.
			res.Outcome = bytes.Clone(res.Outcome)
			if d.held == nil {
				d.held = make(map[int]queue.JobResult)
			}
			d.held[i] = res
		default:
			d.state[i] |= jobSeen
			d.sum.Reported++
			d.next++
			if err := fold(res); err != nil {
				return err
			}
			if err := d.advance(fold, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// advance folds the held results from next on, up to the first job still
// unsettled — or past every job without a result once the batch has
// settled.
func (d *delivery) advance(fold func(queue.JobResult) error, settled bool) error {
	for ; d.next < len(d.state); d.next++ {
		res, ok := d.held[d.next]
		if !ok {
			if !settled {
				return nil
			}
			continue
		}
		delete(d.held, d.next)
		if err := fold(res); err != nil {
			return err
		}
	}
	return nil
}

// settle closes the batch's accounting once its queue has settled: the held
// results fold, in job order, and dead lists the batch's dead-lettered
// jobs; a job neither reported nor dead-lettered is missing.
func (d *delivery) settle(dead []queue.DeadJob, fold func(queue.JobResult) error) error {
	if err := d.advance(fold, true); err != nil {
		return err
	}
	for _, dj := range dead {
		if i := dj.Job.ID - d.first; i >= 0 && i < len(d.state) {
			d.state[i] |= jobDead
		}
	}
	for i, st := range d.state {
		if st&jobDead != 0 {
			d.sum.DeadJobs = append(d.sum.DeadJobs, d.first+i)
		}
		if st == 0 {
			d.sum.Missing = append(d.sum.Missing, d.first+i)
		}
	}
	return nil
}

// batchFold is the coordinator's fold of the batch PushTests pushed last,
// fed as its results settle: the delivery accounting, the outcome fold's
// state across drains, and one decoder for every outcome, so an outcome
// is decoded into reused storage and nothing of it outlives its fold but
// what the report keeps.
type batchFold struct {
	r     *Report
	tests []sched.ConcurrentTest
	deliv *delivery
	fold  outcomeFold
	dec   sched.Decoder
	// trials and exercised are the report's counts when the fold began.
	trials, exercised int
}

// batchFold returns the fold in progress of the batch tests, for r,
// starting one if there is none.
func (p *Pipeline) batchFold(r *Report, tests []sched.ConcurrentTest) *batchFold {
	if f := p.folding; f != nil && f.r == r && len(f.tests) == len(tests) {
		return f
	}
	p.folding = &batchFold{
		r:      r,
		tests:  tests,
		deliv:  newDelivery(p.exploreUnits-len(tests), len(tests)),
		fold:   p.newOutcomeFold(r),
		trials: r.TrialsRun, exercised: r.Exercised,
	}
	return p.folding
}

// outcome decodes one job's first result and folds it.
func (f *batchFold) outcome(res queue.JobResult) error {
	out, err := f.dec.Decode(res.Outcome)
	if err != nil {
		return fmt.Errorf("job %d: decode outcome reported by %q: %w", res.JobID, res.Worker, err)
	}
	f.fold.add(f.tests[res.JobID-f.deliv.first], out)
	return nil
}

// FoldSettled is the coordinator's half of queue-delivered stage 4 while
// the batch PushTests pushed last runs: it folds the first result of every
// job whose predecessors have all been folded — in job order, with the
// fold local execution uses — and holds the rest. The coordinator calls it
// on each drain of the queue's results (Queue.Results), after every turn
// and while it waits on stragglers; FoldResults folds what is left.
func (p *Pipeline) FoldSettled(r *Report, tests []sched.ConcurrentTest, results []queue.JobResult) error {
	f := p.batchFold(r, tests)
	return f.deliv.take(results, f.outcome)
}

// FoldResults finishes the fold of the batch PushTests pushed last, once it
// has settled: it folds results (the last drain; a batch nobody drained
// before comes whole) and the results held for earlier jobs, accounts for
// delivery, and adds the batch to r.Distributed.
func (p *Pipeline) FoldResults(r *Report, tests []sched.ConcurrentTest, results []queue.JobResult, dead []queue.DeadJob) error {
	f := p.batchFold(r, tests)
	p.folding = nil
	if err := f.deliv.take(results, f.outcome); err != nil {
		return err
	}
	if err := f.deliv.settle(dead, f.outcome); err != nil {
		return err
	}
	f.fold.done()
	sum := f.deliv.sum
	sum.Trials, sum.Exercised = r.TrialsRun-f.trials, r.Exercised-f.exercised
	if prev := r.Distributed; prev != nil {
		sum.Expected += prev.Expected
		sum.Reported += prev.Reported
		sum.Duplicates += prev.Duplicates
		sum.Exercised += prev.Exercised
		sum.Trials += prev.Trials
		sum.DeadJobs = append(prev.DeadJobs, sum.DeadJobs...)
		sum.Missing = append(prev.Missing, sum.Missing...)
	}
	sum.BugIDs = r.BugIDs()
	for _, rec := range r.Issues {
		sum.IssueIDs = append(sum.IssueIDs, rec.Issue.ID())
	}
	for _, is := range r.Unknown {
		sum.IssueIDs = append(sum.IssueIDs, is.ID())
	}
	sort.Strings(sum.IssueIDs)
	r.Distributed = &sum
	return nil
}
