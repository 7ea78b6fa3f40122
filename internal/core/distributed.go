package core

import (
	"bytes"
	"fmt"
	"sort"

	"snowboard/internal/cover"
	"snowboard/internal/detect"
	"snowboard/internal/queue"
	"snowboard/internal/sched"
)

// DistSummary is the delivery portion of a campaign report: the
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

// batch is one stage-4 batch from its push to its fold (runBatch): the
// delivery accounting of its jobs (IDs first.., one per exploration unit),
// each of which counts exactly once however many times the queue
// redelivered it; the results that settled ahead of an earlier job; the one
// decoder its outcomes are decoded with, into reused storage, so nothing of
// an outcome outlives its fold but what the report keeps; and the report
// it folds into, with the report's unknown issues by key and its counts
// when the batch was pushed. The first result per job ID is representative
// (any copy is — see DistSummary) and is folded in job order; later copies
// only bump Duplicates, a result naming no job of the batch is dropped, and
// dead-lettered jobs of the batch are surfaced so a poisoned job never
// silently leaves the report.
type batch struct {
	r     *Report
	tests []sched.ConcurrentTest
	first int
	sum   DistSummary
	state []uint8 // by job index: jobSeen, jobDead
	held  map[int]queue.JobResult
	next  int // the lowest job index not folded yet
	dec   sched.Decoder

	segs    *cover.Segments // the pipeline's, across batches
	pairs   *cover.Coverage // the pipeline's, across batches
	unknown map[detect.IssueKey]struct{}
	// trials and exercised are the report's counts when the batch was pushed.
	trials, exercised int
}

// Job states in batch.state.
const (
	jobSeen = 1 << iota // a result was taken
	jobDead             // dead-lettered
)

// newBatch starts the fold of tests into r as the pipeline's next
// exploration units.
func (p *Pipeline) newBatch(r *Report, tests []sched.ConcurrentTest) *batch {
	b := &batch{
		r: r, tests: tests, first: p.exploreUnits,
		sum: DistSummary{Expected: len(tests)}, state: make([]uint8, len(tests)),
		segs: p.segs, pairs: p.pairs, unknown: make(map[detect.IssueKey]struct{}, len(r.Unknown)),
		trials: r.TrialsRun, exercised: r.Exercised,
	}
	for _, u := range r.Unknown {
		b.unknown[u.Key()] = struct{}{}
	}
	p.exploreUnits += len(tests)
	return b
}

// take is the fold while the batch runs, called on each drain of the
// queue's results (Queue.Results), after every turn and while stragglers
// settle: it folds the first result of every job whose predecessors have
// all been folded — in job order — and holds the rest.
func (b *batch) take(results []queue.JobResult) error {
	for _, res := range results {
		i := res.JobID - b.first
		switch {
		case i < 0 || i >= len(b.state):
		case b.state[i]&jobSeen != 0:
			b.sum.Duplicates++
		case i != b.next:
			b.state[i] |= jobSeen
			b.sum.Reported++
			// Held past this drain: the queue lends outcomes only until
			// its next one.
			res.Outcome = bytes.Clone(res.Outcome)
			if b.held == nil {
				b.held = make(map[int]queue.JobResult)
			}
			b.held[i] = res
		default:
			b.state[i] |= jobSeen
			b.sum.Reported++
			b.next++
			if err := b.fold(res); err != nil {
				return err
			}
			if err := b.advance(false); err != nil {
				return err
			}
		}
	}
	return nil
}

// advance folds the held results from next on, up to the first job still
// unsettled — or past every job without a result once the batch has
// settled.
func (b *batch) advance(settled bool) error {
	for ; b.next < len(b.state); b.next++ {
		res, ok := b.held[b.next]
		if !ok {
			if !settled {
				return nil
			}
			continue
		}
		delete(b.held, b.next)
		if err := b.fold(res); err != nil {
			return err
		}
	}
	return nil
}

// finish closes the batch once its queue has settled: it takes results
// (the queue's last drain; a batch nobody drained before comes whole),
// folds the held results in job order, lists the batch's dead-lettered
// jobs — a job neither reported nor dead-lettered is missing — and returns
// the batch's delivery accounting (a campaign's addDelivery).
func (b *batch) finish(results []queue.JobResult, dead []queue.DeadJob) (DistSummary, error) {
	if err := b.take(results); err != nil {
		return DistSummary{}, err
	}
	if err := b.advance(true); err != nil {
		return DistSummary{}, err
	}
	for _, dj := range dead {
		if i := dj.Job.ID - b.first; i >= 0 && i < len(b.state) {
			b.state[i] |= jobDead
		}
	}
	for i, st := range b.state {
		if st&jobDead != 0 {
			b.sum.DeadJobs = append(b.sum.DeadJobs, b.first+i)
		}
		if st == 0 {
			b.sum.Missing = append(b.sum.Missing, b.first+i)
		}
	}
	r := b.r
	r.CoverPairs = b.pairs.Len()
	mCoverPairs.Set(int64(r.CoverPairs))
	r.CoverSegments = b.segs.Len()
	mCoverSegments.Set(int64(r.CoverSegments))
	sum := b.sum
	sum.Trials, sum.Exercised = r.TrialsRun-b.trials, r.Exercised-b.exercised
	return sum, nil
}

// fold decodes one job's first result and adds it.
func (b *batch) fold(res queue.JobResult) error {
	out, err := b.dec.Decode(res.Outcome)
	if err != nil {
		return fmt.Errorf("job %d: decode outcome reported by %q: %w", res.JobID, res.Worker, err)
	}
	b.add(b.tests[res.JobID-b.first], out)
	return nil
}

// add is the one place an Outcome turns into IssueRecords, Unknown,
// counters and coverage: the report keeps what it needs of it by copy, but
// for the Repro state.
func (b *batch) add(ct sched.ConcurrentTest, out *sched.Outcome) {
	r := b.r
	b.segs.AddCounts(out.Segments)
	b.pairs.AddPairs(out.Pairs)
	r.TestedTests++
	if ct.Hint != nil {
		r.TestedPMCs++
		if out.Exercised {
			r.Exercised++
		}
	}
	r.TrialsRun += out.Trials
	r.Switches += out.Switches
	r.Steps += out.Steps
	for j, is := range out.Issues {
		if is.BugID != 0 {
			rec, seen := r.Issues[is.BugID]
			if !seen {
				rec = IssueRecord{
					Issue:     is,
					TestIndex: r.TestedTests,
					Trial:     out.IssueTrials[j],
					Repro:     out.Repro,
					Test:      ct,
				}
			} else if rec.Repro == nil && out.Repro != nil && detect.CrashLevel(is.Kind) {
				// The bug was first seen as its data-race shadow; a
				// later crash-level observation carries the replayable
				// trial — upgrade the record.
				rec.Issue = is
				rec.Repro = out.Repro
				rec.Test = ct
			}
			rec.Count++
			r.Issues[is.BugID] = rec
			continue
		}
		if _, dup := b.unknown[is.Key()]; !dup {
			b.unknown[is.Key()] = struct{}{}
			r.Unknown = append(r.Unknown, is)
		}
	}
	mIssuesFound.Set(int64(len(r.Issues)))
}

// addDelivery adds a batch's delivery accounting to r.Distributed and
// names the issues r holds so far.
func (r *Report) addDelivery(sum DistSummary) {
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
}
