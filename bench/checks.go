package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"snowboard/internal/core"
	"snowboard/internal/detect"
	"snowboard/internal/exec"
	"snowboard/internal/pmc"
	"snowboard/internal/pmc/difftest"
	"snowboard/internal/sched"
	"snowboard/internal/trace"
)

func shortHash(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// reportDigest hashes a report after dropping what two runs of one spec may
// legitimately disagree on: stage timings, the resolved worker count and
// the process-wide metrics snapshot. Everything else — counters, issues,
// repro states, triage bundles, the distributed fold — is covered.
func reportDigest(r *core.Report) (string, error) {
	c := *r
	c.Workers = 0
	c.FuzzTime, c.ProfileTime, c.IdentifyTime, c.ClusterTime, c.ExecTime = 0, 0, 0, 0, 0
	c.Metrics = nil
	b, err := json.Marshal(&c)
	if err != nil {
		return "", fmt.Errorf("encode report: %w", err)
	}
	return shortHash(b), nil
}

// stableDigest is reportDigest without what the panic classifier decides:
// detect attributes a panic to a Table 2 row by walking a map of each
// thread's last access, so a panic with one thread inside configfs_lookup
// and the other inside l2tp code is filed under #11 or #12 by map order.
// Which test first exposed which id, and so the whole issue table, can
// differ between two runs of one spec; the counters cannot. Runs are gated
// on this digest and the full one is printed beside it.
func stableDigest(r *core.Report) (string, error) {
	c := *r
	c.Issues = nil
	c.Notes = nil
	if c.Distributed != nil {
		d := *c.Distributed
		d.BugIDs = nil
		c.Distributed = &d
	}
	return reportDigest(&c)
}

// replayIssues re-executes one recorded trial and runs the full oracle
// suite over it, exactly as the explorer does after a trial.
func replayIssues(env *exec.Env, ct sched.ConcurrentTest, st *sched.ReproState, opt detect.Options) []detect.Issue {
	var tr trace.Trace
	res := sched.Replay(env, ct, st, &tr)
	env.M.SetTrace(nil)
	return detect.Analyze(detect.TrialInput{
		Console:  res.Console,
		Trace:    &tr,
		PostScan: env.K.FsckHost(),
		Hung:     res.Hung,
		Deadlock: res.Deadlock,
	}, opt)
}

// checkFinding verifies one issue record: it is filed under its own id,
// the id is a Table 2 row, and its recorded trial, when there is one,
// replays to the finding — to the same id, or to the very same issue under
// the other id the classifier may give it (see stableDigest). A record
// first seen on an earlier trial of the test than the crash that pinned the
// repro must at least replay to a crash.
func checkFinding(env *exec.Env, id int, rec core.IssueRecord, opt detect.Options) error {
	if _, ok := detect.BugByID(id); !ok {
		return fmt.Errorf("issue #%d is not a Table 2 row", id)
	}
	if rec.Issue.BugID != id {
		return fmt.Errorf("issue #%d is filed under #%d", rec.Issue.BugID, id)
	}
	if rec.Repro == nil {
		return nil
	}
	sameTrial := rec.Trial == rec.Repro.Trial
	for _, is := range replayIssues(env, rec.Test, rec.Repro, opt) {
		if is.BugID == id || is.ID() == rec.Issue.ID() || (!sameTrial && detect.CrashLevel(is.Kind)) {
			return nil
		}
	}
	return fmt.Errorf("issue #%d: recorded trial %d does not replay to it", id, rec.Repro.Trial)
}

// checkReport runs checkFinding over every record, in id order.
func checkReport(env *exec.Env, r *core.Report, opt detect.Options) []string {
	var problems []string
	for _, id := range r.BugIDs() {
		if err := checkFinding(env, id, r.Issues[id], opt); err != nil {
			problems = append(problems, err.Error())
		}
	}
	return problems
}

// checkFold counts the jobs of one distributed campaign that did not settle
// exactly once: dead-lettered, missing, or reported more than once.
func checkFold(sum *core.DistSummary) (failed int, problems []string) {
	if sum == nil {
		return 1, []string{"campaign report has no distributed summary"}
	}
	if sum.Reported != sum.Expected {
		problems = append(problems, fmt.Sprintf("reported %d of %d jobs", sum.Reported, sum.Expected))
	}
	if len(sum.Missing) > 0 {
		problems = append(problems, fmt.Sprintf("missing jobs %v", sum.Missing))
	}
	if len(sum.DeadJobs) > 0 {
		problems = append(problems, fmt.Sprintf("dead-lettered jobs %v", sum.DeadJobs))
	}
	if sum.Duplicates > 0 {
		problems = append(problems, fmt.Sprintf("%d duplicated results", sum.Duplicates))
	}
	failed = len(sum.Missing) + len(sum.DeadJobs) + sum.Duplicates
	if failed == 0 && len(problems) > 0 {
		failed = 1
	}
	return failed, problems
}

// checkSameSet reports how the incremental PMC set differs from the
// one-shot set ("" when deep-equal).
func checkSameSet(oneshot, incremental *pmc.Set) string {
	return difftest.Diff(oneshot, incremental)
}
