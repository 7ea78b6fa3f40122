package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"snowboard/internal/obs"
	"snowboard/internal/queue"
	"snowboard/internal/sched"
	"snowboard/internal/store"
)

// drain runs one core.Worker over lsr, a turn of TurnJobs leases at a
// time, until every job on q has settled (acked or dead-lettered). With
// crashFirst the worker walks away from the first lease of its first turn
// without settling it — the crashed-machine scenario — and relies on the
// lease reaper to redeliver that job to the same loop.
func drain(t *testing.T, q *queue.Queue, lsr Leaser, w *Worker, crashFirst bool) {
	t.Helper()
	crashed := false
	deadline := time.Now().Add(30 * time.Second)
	for {
		leases, err := lsr.LeaseN(TurnJobs)
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
			leases = leases[1:]
		}
		w.Do(lsr, leases)
	}
}

// pushedQueue returns a queue holding tests as jobs seeded from the start
// of p's cursor, so every call enqueues the same (test, seed) pairs. The
// lease is short so an abandoned job redelivers quickly, yet long enough
// that keepTurn's half-TTL extends never race the reaper on a loaded
// machine.
func pushedQueue(t *testing.T, p *Pipeline, tests []sched.ConcurrentTest, maxAttempts int) *queue.Queue {
	t.Helper()
	q := queue.NewWithOptions(queue.Options{
		Name:         "core-test",
		LeaseTimeout: 200 * time.Millisecond,
		MaxAttempts:  maxAttempts,
	})
	t.Cleanup(q.Close)
	p.exploreUnits = 0
	if err := p.PushTests(q, tests, ""); err != nil {
		t.Fatal(err)
	}
	return q
}

// foldReport folds a settled queue's results into a copy of base (the
// report as stages 1–3 left it) and returns it with the delivery-dependent
// duplicate count split off.
func foldReport(t *testing.T, p *Pipeline, base *Report, tests []sched.ConcurrentTest, results []queue.JobResult, dead []queue.DeadJob) (*Report, int) {
	t.Helper()
	r := freshCopy(base)
	if err := p.FoldResults(r, tests, results, dead); err != nil {
		t.Fatal(err)
	}
	sum := r.Distributed
	if sum.Lost() || len(sum.DeadJobs) != 0 || sum.Reported != len(tests) {
		t.Fatalf("campaign did not settle cleanly: %+v", sum)
	}
	if r.TestedTests != sum.Reported || r.TrialsRun != sum.Trials {
		t.Fatalf("report counts %d tests / %d trials, its summary %+v", r.TestedTests, r.TrialsRun, sum)
	}
	dups := sum.Duplicates
	sum.Duplicates = 0
	return r, dups
}

// freshCopy copies a report as stages 1–3 left it, with an issue map of its
// own, for one more stage-4 fold.
func freshCopy(base *Report) *Report {
	r := *base
	r.Issues = make(map[int]IssueRecord)
	return &r
}

// runCampaign drains every queued test through a single in-process
// core.Worker — the engine behind sbd, sbexec and the example — and folds.
func runCampaign(t *testing.T, p *Pipeline, base *Report, opts Options, tests []sched.ConcurrentTest, crashFirst bool) (*Report, queue.Stats) {
	t.Helper()
	q := pushedQueue(t, p, tests, 5)
	drain(t, q, localLeaser{q}, NewWorker(p.Env.Clone(), "core-test", nil), crashFirst)
	r, _ := foldReport(t, p, base, tests, q.Results(), q.DeadLetters())
	return r, q.Stats()
}

// campaignFixture builds a profiled pipeline and its generated tests.
func campaignFixture(t *testing.T, opts Options) (*Pipeline, *Report, []sched.ConcurrentTest) {
	t.Helper()
	p := NewPipeline(opts)
	t.Cleanup(p.Close)
	r := p.NewReport()
	p.BuildCorpus(r)
	if err := p.ProfileAll(r); err != nil {
		t.Fatal(err)
	}
	p.IdentifyPMCs(r)
	tests := p.GenerateTests(r, opts.TestBudget)
	if len(tests) == 0 {
		t.Fatal("no concurrent tests generated")
	}
	return p, r, tests
}

// smallCampaign is the shared cheap fixture: a few tests, a few trials.
func smallCampaign(t *testing.T) (*Pipeline, *Report, Options, []sched.ConcurrentTest) {
	t.Helper()
	opts := DefaultOptions()
	opts.Seed = 3
	opts.FuzzBudget = 150
	opts.CorpusCap = 40
	opts.TestBudget = 6
	opts.Trials = 4
	p, r, tests := campaignFixture(t, opts)
	return p, r, opts, tests
}

// TestCrashRedeliveryByteIdenticalReport is the end-to-end lost-job
// regression test: a worker that dies holding a lease must not lose the job,
// and because a job carries its seed, the whole campaign report after
// redelivery must be byte-for-byte identical to a crash-free run.
func TestCrashRedeliveryByteIdenticalReport(t *testing.T) {
	p, r, opts, tests := smallCampaign(t)

	baseline, baseStats := runCampaign(t, p, r, opts, tests, false)
	crashy, crashStats := runCampaign(t, p, r, opts, tests, true)

	if baseStats.Redelivered != 0 {
		t.Errorf("baseline redeliveries = %d, want 0", baseStats.Redelivered)
	}
	if crashStats.Redelivered != 1 {
		t.Errorf("crashy redeliveries = %d, want 1", crashStats.Redelivered)
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
		t.Fatalf("campaign report changed under worker crash:\nbaseline: %s\ncrashy:   %s", want, got)
	}
}

// flakyDial is the seeded fault-injecting transport of the door tests.
func flakyDial(seed int64) func(string) (net.Conn, error) {
	return queue.FlakyDialer(queue.FlakyOptions{
		Seed:      seed,
		FailProb:  0.03,
		DelayProb: 0.05,
		MaxDelay:  2 * time.Millisecond,
	}, nil)
}

// serveQueue serves q over loopback TCP and returns a client of it.
func serveQueue(t *testing.T, q *queue.Queue, seed int64, dial func(string) (net.Conn, error)) *queue.Client {
	t.Helper()
	srv, err := queue.Serve(q, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := queue.DialOpts(srv.Addr(), queue.DialOptions{
		MaxRetries: 8,
		BaseDelay:  time.Millisecond,
		MaxDelay:   20 * time.Millisecond,
		Seed:       seed,
		Dial:       dial,
	})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		srv.Close()
	})
	return cl
}

// TestWorkerFrontDoorsAgree is the front-door differential: the same
// generated tests through core.Worker over the in-process leaser, a TCP
// queue client, and a fault-injected TCP client that also abandons a lease
// must yield the same outcome bytes per job and the same folded report —
// what a queue-delivered test computes may not depend on how it was
// delivered.
func TestWorkerFrontDoorsAgree(t *testing.T) {
	p, base, opts, tests := smallCampaign(t)

	// run drains the tests through one door and returns each job's outcome
	// bytes plus the folded report.
	run := func(name string, tcp bool, dial func(string) (net.Conn, error), crashFirst bool) (map[int]string, *Report) {
		q := pushedQueue(t, p, tests, 50)
		var lsr Leaser = localLeaser{q}
		if tcp {
			lsr = serveQueue(t, q, opts.Seed, dial)
		}
		drain(t, q, lsr, NewWorker(p.Env.Clone(), name, nil), crashFirst)
		if st := q.Stats(); crashFirst && st.Redelivered == 0 {
			t.Errorf("%s: the abandoned lease was never redelivered: %+v", name, st)
		}
		results := q.Results()
		perJob := make(map[int]string, len(tests))
		for _, res := range results {
			if res.Worker != name {
				t.Errorf("%s: result for job %d names worker %q", name, res.JobID, res.Worker)
			}
			if first, dup := perJob[res.JobID]; dup && first != string(res.Outcome) {
				t.Errorf("%s: redelivered copy of job %d differs:\n%s\nvs\n%s", name, res.JobID, first, res.Outcome)
			}
			perJob[res.JobID] = string(res.Outcome)
		}
		r, _ := foldReport(t, p, base, tests, results, q.DeadLetters())
		return perJob, r
	}

	wantJobs, wantReport := run("local", false, nil, false)
	for _, door := range []struct {
		name       string
		dial       func(string) (net.Conn, error)
		crashFirst bool
	}{
		{"tcp", nil, false},
		{"flaky-tcp", flakyDial(opts.Seed), true},
	} {
		gotJobs, gotReport := run(door.name, true, door.dial, door.crashFirst)
		if !reflect.DeepEqual(gotJobs, wantJobs) {
			t.Errorf("%s: per-job outcomes differ from the in-process door:\n%+v\nvs\n%+v", door.name, gotJobs, wantJobs)
		}
		if !reflect.DeepEqual(gotReport, wantReport) {
			t.Errorf("%s: folded report differs from the in-process door:\n%+v\nvs\n%+v", door.name, gotReport, wantReport)
		}
	}
}

// dupLeaser records its first result twice — the at-least-once duplicate
// of a settle whose answer was lost and whose retry landed again.
type dupLeaser struct {
	Leaser
	duplicated bool
}

func (d *dupLeaser) Settle(items []queue.Settlement) ([]error, error) {
	if !d.duplicated && len(items) > 0 {
		d.duplicated = true
		if _, err := d.Leaser.Settle([]queue.Settlement{{Result: items[0].Result}}); err != nil {
			return nil, err
		}
	}
	return d.Leaser.Settle(items)
}

// TestQueueFoldEqualsLocalFold: the same tests and seeds explored
// in-process by the shared recipe with the queue template and folded, and
// pushed through PushTests → flaky TCP → Worker.Do with one abandoned lease
// and one duplicated report, yield deep-equal reports — issues, repro
// state, triage, unknowns and counters: the queue adds delivery, nothing
// else.
func TestQueueFoldEqualsLocalFold(t *testing.T) {
	for _, seed := range []int64{3, 7} {
		opts := triageOpts(seed)
		p, base, tests := campaignFixture(t, opts)

		env := p.Env.Clone()
		x := stage4Explorer(env, opts.Trials, opts.Detect)
		outs := make([]sched.Outcome, len(tests))
		for i, s := range p.exploreSeeds(len(tests)) {
			x.Seed = s
			outs[i] = x.Explore(tests[i])
		}
		env.Close()
		local := freshCopy(base)
		p.foldOutcomes(local, tests, outs)
		p.TriageReport(local)

		q := pushedQueue(t, p, tests, 50)
		lsr := &dupLeaser{Leaser: serveQueue(t, q, seed, flakyDial(seed))}
		wenv := p.Env.Clone()
		drain(t, q, lsr, NewWorker(wenv, "queue", nil), true)
		wenv.Close()
		if st := q.Stats(); st.Redelivered == 0 {
			t.Errorf("seed %d: the abandoned lease was never redelivered: %+v", seed, st)
		}
		queued, dups := foldReport(t, p, base, tests, q.Results(), q.DeadLetters())
		if dups == 0 {
			t.Errorf("seed %d: the duplicated report was not counted", seed)
		}

		crash := 0
		for id, rec := range queued.Issues {
			if rec.Repro != nil {
				crash++
				if rec.Triage == nil {
					t.Errorf("seed %d: issue #%d has a recorded trial but no triage summary", seed, id)
				}
			}
		}
		if crash == 0 {
			t.Fatalf("seed %d: no crash-level finding to compare", seed)
		}
		queued.Distributed = nil
		if !reflect.DeepEqual(queued, local) {
			t.Errorf("seed %d: queue fold differs from the local fold:\n%+v\nvs\n%+v", seed, queued, local)
		}
	}
}

// frameCounter counts the frames a queue client writes, by op: the client
// writes each frame, header line and trailer, in one Write.
type frameCounter struct {
	net.Conn
	mu  *sync.Mutex
	ops map[string]int
}

func (c frameCounter) Write(b []byte) (int, error) {
	var hdr struct {
		Op string `json:"op"`
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	if json.Unmarshal(line, &hdr) == nil {
		c.mu.Lock()
		c.ops[hdr.Op]++
		c.mu.Unlock()
	}
	return c.Conn.Write(b)
}

// framesServed is how many frames every queue listener in the process has
// answered so far, whatever their op.
func framesServed() int64 {
	var n int64
	for _, m := range []string{obs.MQueueNetLease, obs.MQueueNetSettle, obs.MQueueNetNack,
		obs.MQueueNetExtend, obs.MQueueNetUnknown, obs.MQueueNetBadReq} {
		n += obs.C(m).Value()
	}
	return n
}

// TestTurnIsTwoFrames: a campaign's executor leases its own queue
// in-process and writes no frame to the registry's listener, even with the
// listener's address in its env; a worker that joins the campaign over TCP
// pays per turn, not per job — exactly one lease frame and one settle frame
// each, nothing else — and the report folded from both equals the local
// fold of the same tests and seeds.
func TestTurnIsTwoFrames(t *testing.T) {
	const slice, joinedTurns = 4, 2
	spec := smallSpec("frames", 3)
	spec.TestBudget = 10
	opts, err := spec.BuildOptions("")
	if err != nil {
		t.Fatal(err)
	}
	p, base, tests := campaignFixture(t, opts)
	if len(tests) <= joinedTurns*slice {
		t.Fatalf("%d tests leave the campaign's executor nothing after %d joined turns", len(tests), joinedTurns)
	}

	reg := queue.NewRegistry(queue.Options{})
	defer reg.Close()
	srv, err := queue.ServeRegistry(reg, "127.0.0.1:0", queue.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	before := framesServed()
	gate := make(chan struct{})
	c, err := StartCampaign(spec, CampaignEnv{Registry: reg, Addr: srv.Addr(), Slice: slice, ExecGate: gate})
	if err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(time.Minute); c.Status().Expected == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(end) {
			t.Fatal("the campaign never pushed its jobs")
		}
	}

	// A worker joins over TCP and takes its turns while the executor waits
	// at the gate, so each of its leases is a full turn.
	var mu sync.Mutex
	ops := make(map[string]int)
	dial := func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return frameCounter{Conn: conn, mu: &mu, ops: ops}, nil
	}
	cl, err := queue.DialOpts(srv.Addr(), queue.DialOptions{Queue: c.QueueName(), Dial: dial})
	if err != nil {
		t.Fatal(err)
	}
	wenv := p.Env.Clone()
	w := NewWorker(wenv, "joined", nil)
	for turn := 0; turn < joinedTurns; turn++ {
		leases, err := cl.LeaseN(slice)
		if err != nil || len(leases) != slice {
			t.Fatalf("joined turn %d leased %d jobs (%v), want %d", turn, len(leases), err, slice)
		}
		if settled, _ := w.Do(cl, leases); settled != slice {
			t.Fatalf("joined turn %d settled %d jobs, want %d", turn, settled, slice)
		}
	}
	cl.Close()
	wenv.Close()
	close(gate)
	r, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	got := fmt.Sprint(ops)
	mu.Unlock()
	if want := fmt.Sprint(map[string]int{"lease": joinedTurns, "settle": joinedTurns}); got != want {
		t.Fatalf("%d joined turns of %d jobs wrote frames %s, want %s", joinedTurns, slice, got, want)
	}
	if served, joined := framesServed()-before, int64(2*joinedTurns); served != joined {
		t.Fatalf("the listener answered %d frames, the joined worker wrote %d: the campaign's executor wrote %d", served, joined, served-joined)
	}
	if r.Distributed.Expected != len(tests) || r.Distributed.Reported != len(tests) {
		t.Fatalf("campaign folded %+v, want all %d tests", r.Distributed, len(tests))
	}

	env := p.Env.Clone()
	defer env.Close()
	x := stage4Explorer(env, opts.Trials, opts.Detect)
	outs := make([]sched.Outcome, len(tests))
	for i, s := range p.exploreSeeds(len(tests)) {
		x.Seed = s
		outs[i] = x.Explore(tests[i])
	}
	local := freshCopy(base)
	p.foldOutcomes(local, tests, outs)
	p.TriageReport(local)
	for _, rep := range []*Report{r, local} {
		rep.FuzzTime, rep.ProfileTime, rep.IdentifyTime, rep.ClusterTime, rep.ExecTime = 0, 0, 0, 0, 0
	}
	r.Distributed = nil
	if !reflect.DeepEqual(r, local) {
		t.Fatalf("turn-settled campaign report differs from the local fold:\n%+v\nvs\n%+v", r, local)
	}
}

// extendLeaser is a Leaser whose Extend counts its calls per lease and
// fails for the leases marked gone.
type extendLeaser struct {
	Leaser
	mu    sync.Mutex
	calls map[uint64]int
	gone  map[uint64]bool
}

func (l *extendLeaser) Extend(id uint64, _ time.Duration) (time.Time, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calls[id]++
	if l.gone[id] {
		return time.Time{}, queue.ErrUnknownLease
	}
	return time.Now(), nil
}

func (l *extendLeaser) count(id uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.calls[id]
}

// TestKeepTurnDropsFailedLeases: the turn's keeper extends a lease only
// until one extend of it fails, and stops once no lease is left, so a
// lapsed lease or an unreachable server never keeps it calling.
func TestKeepTurnDropsFailedLeases(t *testing.T) {
	l := &extendLeaser{calls: map[uint64]int{}, gone: map[uint64]bool{1: true}}
	deadline := time.Now().Add(40 * time.Millisecond)
	stop := keepTurn(l, []queue.Lease{{ID: 1, Deadline: deadline}, {ID: 2, Deadline: deadline}})
	defer stop()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for end := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(end) {
				t.Fatalf("keeper never %s", what)
			}
		}
	}
	waitFor("extended the live lease twice", func() bool { return l.count(2) >= 2 })
	if n := l.count(1); n != 1 {
		t.Fatalf("lapsed lease extended %d times, want once", n)
	}
	l.mu.Lock()
	l.gone[2] = true
	before := l.calls[2]
	l.mu.Unlock()
	waitFor("retried the last lease", func() bool { return l.count(2) > before })
	settledAt := l.count(2)
	time.Sleep(150 * time.Millisecond)
	if n := l.count(2); n != settledAt {
		t.Fatalf("keeper kept extending a failed lease: %d calls, then %d", settledAt, n)
	}
}

// TestWorkerNacksUnresolvableJobs: a by-reference job reaching a worker
// with no resolver is handed back with the reason, and after the retry
// budget lands on the dead-letter list — accounted for, never lost.
func TestWorkerNacksUnresolvableJobs(t *testing.T) {
	p, _, _, tests := smallCampaign(t)
	p.corpusDigest = store.Sum([]byte("a corpus only the coordinator has"))
	q := pushedQueue(t, p, tests, 2)
	drain(t, q, localLeaser{q}, NewWorker(p.Env.Clone(), "no-store", nil), false)

	dead := q.DeadLetters()
	if len(dead) != len(tests) {
		t.Fatalf("%d dead letters, want %d", len(dead), len(tests))
	}
	for _, d := range dead {
		if d.Attempts != 2 || !strings.Contains(d.Reason, "has no resolver") {
			t.Errorf("dead job %d: attempts=%d reason=%q", d.Job.ID, d.Attempts, d.Reason)
		}
	}
	sum, _ := AggregateResults(len(tests), q.Results(), dead)
	if sum.Reported != 0 || len(sum.DeadJobs) != len(tests) || sum.Lost() {
		t.Fatalf("unresolvable jobs not fully accounted for: %+v", sum)
	}
}

// TestWorkerNacksJobsWithoutTrials: a job that carries no trial budget, or
// one past MaxTrials, is malformed — no worker substitutes a budget of its
// own or explores without bound — so it is nacked with the reason until it
// dead-letters, and nothing is explored.
func TestWorkerNacksJobsWithoutTrials(t *testing.T) {
	p, _, _, tests := smallCampaign(t)
	q := queue.NewWithOptions(queue.Options{Name: "no-trials", MaxAttempts: 2})
	t.Cleanup(q.Close)
	budgets := []int{0, MaxTrials + 1}
	for i, ct := range tests {
		job := queue.Job{ID: i, Seed: 1, Trials: budgets[i%2], Writer: ct.Writer, Reader: ct.Reader, Hint: ct.Hint}
		if err := q.Push(job); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, q, localLeaser{q}, NewWorker(p.Env.Clone(), "budgetless", nil), false)
	dead, results := q.DeadLetters(), q.Results()
	if len(dead) != len(tests) || len(results) != 0 {
		t.Fatalf("%d dead letters and %d results, want %d and none", len(dead), len(results), len(tests))
	}
	for _, d := range dead {
		want := fmt.Sprintf("trial budget %d", budgets[d.Job.ID%2])
		if d.Attempts != 2 || !strings.Contains(d.Reason, want) {
			t.Errorf("dead job %d: attempts=%d reason=%q, want %q", d.Job.ID, d.Attempts, d.Reason, want)
		}
	}
}

// TestAggregateResultsFolds pins the delivery accounting: duplicates
// collapse to the first copy, the first copies come back in job order,
// dead-lettered and missing jobs are surfaced instead of silently dropped,
// and a result naming no enqueued job counts for nothing.
func TestAggregateResultsFolds(t *testing.T) {
	results := []queue.JobResult{
		{JobID: 2, Trials: 4, Worker: "a"},
		{JobID: 0, Trials: 2},
		{JobID: 2, Trials: 4, Worker: "b"}, // redelivered copy
		{JobID: 1, Trials: 1},
		{JobID: 6, Trials: 9},
	}
	dead := []queue.DeadJob{{Job: queue.Job{ID: 4}, Attempts: 3, Reason: "poisoned"}}
	sum, first := AggregateResults(6, results, dead)
	want := DistSummary{
		Expected:   6,
		Reported:   3,
		Duplicates: 1,
		DeadJobs:   []int{4},
		Missing:    []int{3, 5},
	}
	if !reflect.DeepEqual(sum, want) {
		t.Fatalf("AggregateResults = %+v, want %+v", sum, want)
	}
	if !reflect.DeepEqual(first, []queue.JobResult{results[1], results[3], results[0]}) {
		t.Fatalf("first results = %+v, want jobs 0, 1, 2 with job 2 from worker a", first)
	}
	if !sum.Lost() {
		t.Fatal("Lost() = false with missing jobs")
	}
	if clean, _ := AggregateResults(3, results, nil); clean.Lost() {
		t.Fatalf("Lost() = true for fully-settled campaign: %+v", clean)
	}
}
