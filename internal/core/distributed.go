package core

import (
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

// AggregateResults is the delivery accounting of one batch of a
// distributed run: each of its n jobs (IDs first..first+n-1, as enqueued by
// PushTests) counts exactly once no matter how many times the queue
// redelivered it. The first result per job ID is representative (any copy
// is — see DistSummary) and returned in job-ID order; later copies only
// bump Duplicates, a result naming no job of the batch is dropped, and
// dead-lettered jobs of the batch are surfaced so a poisoned job never
// silently leaves the report.
func AggregateResults(first, n int, results []queue.JobResult, dead []queue.DeadJob) (DistSummary, []queue.JobResult) {
	sum := DistSummary{Expected: n}
	in := func(id int) bool { return id >= first && id < first+n }
	seen := make(map[int]bool, len(results))
	var firsts []queue.JobResult
	for _, res := range results {
		switch {
		case !in(res.JobID):
		case seen[res.JobID]:
			sum.Duplicates++
		default:
			seen[res.JobID] = true
			firsts = append(firsts, res)
		}
	}
	sum.Reported = len(firsts)
	sort.Slice(firsts, func(i, j int) bool { return firsts[i].JobID < firsts[j].JobID })
	deadSet := make(map[int]bool, len(dead))
	for _, d := range dead {
		if in(d.Job.ID) && !deadSet[d.Job.ID] {
			deadSet[d.Job.ID] = true
			sum.DeadJobs = append(sum.DeadJobs, d.Job.ID)
		}
	}
	sort.Ints(sum.DeadJobs)
	for id := first; id < first+n; id++ {
		if !seen[id] && !deadSet[id] {
			sum.Missing = append(sum.Missing, id)
		}
	}
	return sum, firsts
}

// FoldResults is the coordinator's half of queue-delivered stage 4, run
// once the batch PushTests pushed last has settled: account for delivery,
// fold the first outcome each job reported — in job order, with the fold
// local execution uses — and add the batch to r.Distributed.
func (p *Pipeline) FoldResults(r *Report, tests []sched.ConcurrentTest, results []queue.JobResult, dead []queue.DeadJob) error {
	first := p.exploreUnits - len(tests)
	sum, firsts := AggregateResults(first, len(tests), results, dead)
	folded := make([]sched.ConcurrentTest, len(firsts))
	outs := make([]sched.Outcome, len(firsts))
	for i, res := range firsts {
		folded[i] = tests[res.JobID-first]
		if err := outs[i].Decode(res.Outcome); err != nil {
			return fmt.Errorf("job %d: decode outcome reported by %q: %w", res.JobID, res.Worker, err)
		}
	}
	trials, exercised := r.TrialsRun, r.Exercised
	p.foldOutcomes(r, folded, outs)
	sum.Trials, sum.Exercised = r.TrialsRun-trials, r.Exercised-exercised
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
