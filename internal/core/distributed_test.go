package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"snowboard/internal/queue"
	"snowboard/internal/sched"
)

// drain runs one core.Worker over lsr until every job on q has settled
// (acked or dead-lettered). With crashFirst the worker abandons its first
// lease without acking — the crashed-machine scenario — and relies on the
// lease reaper to redeliver the job to the same loop.
func drain(t *testing.T, q *queue.Queue, lsr Leaser, w *Worker, crashFirst bool) {
	t.Helper()
	crashed := false
	deadline := time.Now().Add(30 * time.Second)
	for {
		ls, err := lsr.Lease()
		if err != nil {
			st := q.Stats()
			if errors.Is(err, queue.ErrEmpty) && st.Pending == 0 && st.Leased == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("campaign never settled: last lease error %v, stats = %+v", err, st)
			}
			// Empty with leases outstanding, or a chaos-injected transport
			// failure that outlasted the client's retry budget: poll again.
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if crashFirst && !crashed {
			// Walk away holding the lease: the job must come back.
			crashed = true
			continue
		}
		w.Do(lsr, ls)
	}
}

// pushedQueue returns a queue holding tests as jobs. The lease is short so
// an abandoned job redelivers quickly, yet long enough that keepLease's
// half-TTL extends never race the reaper on a loaded machine.
func pushedQueue(t *testing.T, tests []sched.ConcurrentTest, corpusDigest string, maxAttempts int) *queue.Queue {
	t.Helper()
	q := queue.NewWithOptions(queue.Options{
		Name:         "core-test",
		LeaseTimeout: 200 * time.Millisecond,
		MaxAttempts:  maxAttempts,
	})
	t.Cleanup(q.Close)
	if err := PushTests(q, tests, corpusDigest, ""); err != nil {
		t.Fatal(err)
	}
	return q
}

// runCampaign drains every queued test through a single in-process
// core.Worker — the engine behind sbd, sbexec and the example.
func runCampaign(t *testing.T, p *Pipeline, opts Options, tests []sched.ConcurrentTest, crashFirst bool) (DistSummary, queue.Stats) {
	t.Helper()
	q := pushedQueue(t, tests, "", 5)
	drain(t, q, localLeaser{q}, NewWorker(p.Env.Clone(), opts.Trials, "core-test", nil), crashFirst)
	return AggregateResults(len(tests), q.Results(), q.DeadLetters()), q.Stats()
}

// smallCampaign builds the shared fixture: a profiled pipeline and a few
// generated concurrent tests.
func smallCampaign(t *testing.T) (*Pipeline, *Report, Options, []sched.ConcurrentTest) {
	t.Helper()
	opts := DefaultOptions()
	opts.Seed = 3
	opts.FuzzBudget = 150
	opts.CorpusCap = 40
	opts.Trials = 4

	p := NewPipeline(opts)
	r := p.NewReport()
	p.BuildCorpus(r)
	if err := p.ProfileAll(r); err != nil {
		t.Fatal(err)
	}
	p.IdentifyPMCs(r)
	tests := p.GenerateTests(r, 6)
	if len(tests) == 0 {
		t.Fatal("no concurrent tests generated")
	}
	return p, r, opts, tests
}

// TestCrashRedeliveryByteIdenticalReport is the end-to-end lost-job
// regression test: a worker that dies holding a lease must not lose the job,
// and because per-job seeds derive from the job ID, the campaign summary
// after redelivery must be byte-for-byte identical to a crash-free run.
func TestCrashRedeliveryByteIdenticalReport(t *testing.T) {
	p, r, opts, tests := smallCampaign(t)

	baseline, baseStats := runCampaign(t, p, opts, tests, false)
	crashy, crashStats := runCampaign(t, p, opts, tests, true)

	if baseStats.Redelivered != 0 {
		t.Errorf("baseline redeliveries = %d, want 0", baseStats.Redelivered)
	}
	if crashStats.Redelivered != 1 {
		t.Errorf("crashy redeliveries = %d, want 1", crashStats.Redelivered)
	}
	if crashy.Lost() || len(crashy.DeadJobs) != 0 {
		t.Fatalf("crashy campaign lost jobs: %+v", crashy)
	}
	if crashy.Reported != len(tests) {
		t.Fatalf("crashy reported %d/%d jobs", crashy.Reported, len(tests))
	}

	want, err := json.Marshal(baseline)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(crashy)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(got) {
		t.Fatalf("campaign summary changed under worker crash:\nbaseline: %s\ncrashy:   %s", want, got)
	}

	// The summary rides the campaign report as its distributed section.
	r.Distributed = &crashy
	if _, err := json.Marshal(r); err != nil {
		t.Fatalf("report with distributed summary does not marshal: %v", err)
	}
}

// TestWorkerFrontDoorsAgree is the front-door differential: the same
// generated tests through core.Worker over the in-process leaser, a TCP
// queue client, and a fault-injected TCP client that also abandons a lease
// must yield the same per-job results and the same folded summary — what a
// queue-delivered test computes may not depend on how it was delivered.
func TestWorkerFrontDoorsAgree(t *testing.T) {
	p, _, opts, tests := smallCampaign(t)

	// run drains the tests through one door and returns each job's result
	// (Worker cleared: it names the door, not the work) plus the summary
	// JSON with the legitimately delivery-dependent duplicate count zeroed.
	run := func(name string, tcp bool, dial func(string) (net.Conn, error), crashFirst bool) (map[int]queue.JobResult, []byte) {
		q := pushedQueue(t, tests, "", 50)
		var lsr Leaser = localLeaser{q}
		if tcp {
			srv, err := queue.Serve(q, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			cl, err := queue.DialOpts(srv.Addr(), queue.DialOptions{
				MaxRetries: 8,
				BaseDelay:  time.Millisecond,
				MaxDelay:   20 * time.Millisecond,
				Seed:       opts.Seed,
				Dial:       dial,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			lsr = cl
		}
		drain(t, q, lsr, NewWorker(p.Env.Clone(), opts.Trials, name, nil), crashFirst)
		if st := q.Stats(); crashFirst && st.Redelivered == 0 {
			t.Errorf("%s: the abandoned lease was never redelivered: %+v", name, st)
		}

		results, dead := q.Results(), q.DeadLetters()
		perJob := make(map[int]queue.JobResult, len(tests))
		for _, res := range results {
			if res.Worker != name {
				t.Errorf("%s: result for job %d names worker %q", name, res.JobID, res.Worker)
			}
			res.Worker = ""
			if first, dup := perJob[res.JobID]; dup && !reflect.DeepEqual(first, res) {
				t.Errorf("%s: redelivered copy of job %d differs:\n%+v\nvs\n%+v", name, res.JobID, first, res)
			}
			perJob[res.JobID] = res
		}
		sum := AggregateResults(len(tests), results, dead)
		if sum.Lost() || len(sum.DeadJobs) != 0 || sum.Reported != len(tests) {
			t.Fatalf("%s: campaign did not settle cleanly: %+v", name, sum)
		}
		sum.Duplicates = 0
		payload, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		return perJob, payload
	}

	wantJobs, wantSum := run("local", false, nil, false)
	flaky := queue.FlakyDialer(queue.FlakyOptions{
		Seed:      opts.Seed,
		FailProb:  0.03,
		DelayProb: 0.05,
		MaxDelay:  2 * time.Millisecond,
	}, nil)
	for _, door := range []struct {
		name       string
		dial       func(string) (net.Conn, error)
		crashFirst bool
	}{
		{"tcp", nil, false},
		{"flaky-tcp", flaky, true},
	} {
		gotJobs, gotSum := run(door.name, true, door.dial, door.crashFirst)
		if !reflect.DeepEqual(gotJobs, wantJobs) {
			t.Errorf("%s: per-job results differ from the in-process door:\n%+v\nvs\n%+v", door.name, gotJobs, wantJobs)
		}
		if !bytes.Equal(gotSum, wantSum) {
			t.Errorf("%s: summary differs from the in-process door:\n%s\nvs\n%s", door.name, gotSum, wantSum)
		}
	}
}

// TestWorkerNacksUnresolvableJobs: a by-reference job reaching a worker
// with no resolver is handed back with the reason, and after the retry
// budget lands on the dead-letter list — accounted for, never lost.
func TestWorkerNacksUnresolvableJobs(t *testing.T) {
	p, _, opts, tests := smallCampaign(t)
	q := pushedQueue(t, tests, strings.Repeat("ab", 32), 2)
	drain(t, q, localLeaser{q}, NewWorker(p.Env.Clone(), opts.Trials, "no-store", nil), false)

	dead := q.DeadLetters()
	if len(dead) != len(tests) {
		t.Fatalf("%d dead letters, want %d", len(dead), len(tests))
	}
	for _, d := range dead {
		if d.Attempts != 2 || !strings.Contains(d.Reason, "has no resolver") {
			t.Errorf("dead job %d: attempts=%d reason=%q", d.Job.ID, d.Attempts, d.Reason)
		}
	}
	sum := AggregateResults(len(tests), q.Results(), dead)
	if sum.Reported != 0 || len(sum.DeadJobs) != len(tests) || sum.Lost() {
		t.Fatalf("unresolvable jobs not fully accounted for: %+v", sum)
	}
}

// TestAggregateResultsFolds pins the pure fold: duplicates collapse to the
// first copy, bug/issue IDs union sorted, dead-lettered and missing jobs are
// surfaced instead of silently dropped.
func TestAggregateResultsFolds(t *testing.T) {
	results := []queue.JobResult{
		{JobID: 2, Trials: 4, Exercised: true, BugIDs: []int{9, 3}, IssueIDs: []string{"b"}},
		{JobID: 0, Trials: 2, BugIDs: []int{3}},
		{JobID: 2, Trials: 4, Exercised: true, BugIDs: []int{9, 3}, IssueIDs: []string{"b"}}, // redelivered copy
		{JobID: 1, Trials: 1, Exercised: true, IssueIDs: []string{"a"}},
	}
	dead := []queue.DeadJob{{Job: queue.Job{ID: 4}, Attempts: 3, Reason: "poisoned"}}
	sum := AggregateResults(6, results, dead)
	want := DistSummary{
		Expected:   6,
		Reported:   3,
		Duplicates: 1,
		Exercised:  2,
		Trials:     7,
		BugIDs:     []int{3, 9},
		IssueIDs:   []string{"a", "b"},
		DeadJobs:   []int{4},
		Missing:    []int{3, 5},
	}
	if !reflect.DeepEqual(sum, want) {
		t.Fatalf("AggregateResults = %+v, want %+v", sum, want)
	}
	if !sum.Lost() {
		t.Fatal("Lost() = false with missing jobs")
	}
	clean := AggregateResults(3, results, nil)
	if clean.Lost() {
		t.Fatalf("Lost() = true for fully-settled campaign: %+v", clean)
	}
}
