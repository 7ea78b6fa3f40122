package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"snowboard/internal/corpus"
	"snowboard/internal/cover"
	"snowboard/internal/detect"
	"snowboard/internal/kernel"
	"snowboard/internal/obs"
	"snowboard/internal/par"
	"snowboard/internal/pmc"
	"snowboard/internal/queue"
	"snowboard/internal/sched"
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
		leases, err := lsr.LeaseN(nil, TurnJobs)
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
// of p's cursor, so every call enqueues the same (test, seed) pairs, and
// their batch, which folds into a copy of base (the report as stages 1–3
// left it). The lease is short so an abandoned job redelivers quickly, yet
// long enough that the lease keeper's half-TTL extends never race the
// reaper on a loaded machine.
func pushedQueue(t *testing.T, p *Pipeline, base *Report, tests []sched.ConcurrentTest, maxAttempts int) (*queue.Queue, *batch) {
	t.Helper()
	q := queue.NewWithOptions(queue.Options{
		Name:         "core-test",
		LeaseTimeout: 200 * time.Millisecond,
		MaxAttempts:  maxAttempts,
	})
	t.Cleanup(q.Close)
	p.exploreUnits = 0
	b, err := p.pushBatch(q, freshCopy(base), tests)
	if err != nil {
		t.Fatal(err)
	}
	return q, b
}

// foldReport finishes b's fold with a settled queue's results, triages its
// report as runStages does after the last batch, and returns it with the
// delivery-dependent duplicate count split off.
func foldReport(t *testing.T, p *Pipeline, b *batch, results []queue.JobResult, dead []queue.DeadJob) (*Report, int) {
	t.Helper()
	r := b.r
	sum, err := b.finish(results, dead)
	if err != nil {
		t.Fatal(err)
	}
	r.addDelivery(sum)
	p.TriageReport(r)
	sum = *r.Distributed
	if sum.Lost() || len(sum.DeadJobs) != 0 || sum.Reported != len(b.tests) {
		t.Fatalf("campaign did not settle cleanly: %+v", sum)
	}
	if r.TestedTests != sum.Reported || r.TrialsRun != sum.Trials {
		t.Fatalf("report counts %d tests / %d trials, its summary %+v", r.TestedTests, r.TrialsRun, sum)
	}
	dups := sum.Duplicates
	r.Distributed.Duplicates = 0
	return r, dups
}

// serialFold explores tests one after another on a clone of p's env, with
// the seeds, trial budget and adoption set the batch's jobs would carry,
// and folds the outcomes into r, in test order: the reference every
// queue-delivered fold must equal. keep, when set, picks the tests (by
// index) that are explored and folded.
func serialFold(t *testing.T, p *Pipeline, r *Report, tests []sched.ConcurrentTest, keep func(int) bool) {
	t.Helper()
	list, err := queue.NewAdoptList(p.adoptable(tests))
	if err != nil {
		t.Fatal(err)
	}
	env := p.Env.Clone()
	defer env.Close()
	x := stage4Explorer(env, p.Opts.Detect)
	x.Trials, x.KnownPMCs = p.Opts.Trials, list.Known()
	b := p.newBatch(r, tests)
	for i := range tests {
		if keep == nil || keep(i) {
			x.Seed = par.UnitSeed(p.Opts.Seed, par.StageExplore, b.first+i)
			out := x.Explore(tests[i])
			b.add(tests[i], &out)
		}
	}
	// Closes the fold as a pushed batch's does; the delivery accounting,
	// which finds every job missing, is not read.
	if _, err := b.finish(nil, nil); err != nil {
		t.Fatal(err)
	}
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
	q, b := pushedQueue(t, p, base, tests, 5)
	drain(t, q, localLeaser{q}, NewWorker(p.Env.Clone(), "core-test"), crashFirst)
	r, _ := foldReport(t, p, b, q.Results(), q.DeadLetters())
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

// TestPushTestsFitsLeaseFrames: the longest adoption list a batch's push takes,
// of PMCs as wide as their encoding gets, travels in a lease frame with
// its batch's first job and decodes; one PMC more is refused in-process
// before any job is pushed or any exploration unit drawn.
func TestPushTestsFitsLeaseFrames(t *testing.T) {
	widest := func(i int) pmc.PMC {
		k := pmc.Key{Ins: math.MaxUint32, Addr: math.MaxUint64 - uint64(i), Size: 8, Val: math.MaxUint64}
		return pmc.PMC{Write: k, Read: k, DFLeader: true}
	}
	ps := make([]pmc.PMC, queue.MaxAdoptBytes/len(pmc.AppendPMC(nil, widest(0))))
	for i := range ps {
		ps[i] = widest(i)
	}
	fits := func(ps []pmc.PMC) bool {
		_, err := queue.NewAdoptList(ps)
		return err == nil
	}
	for !fits(ps) {
		ps = ps[:len(ps)-1]
	}
	if fits(append(ps, widest(len(ps)))) {
		t.Fatalf("%d PMCs is not the longest list under the cap", len(ps))
	}
	p := NewPipeline(DefaultOptions())
	t.Cleanup(p.Close)
	prog := &corpus.Prog{Calls: []corpus.Call{{Nr: kernel.SysMountNr}}}
	tests := []sched.ConcurrentTest{{Writer: prog, Reader: prog.Clone()}}

	reg := queue.NewRegistry(queue.Options{})
	defer reg.Close()
	srv, err := queue.ServeRegistry(reg, "127.0.0.1:0", queue.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	q := reg.Open("adopt")
	cl, err := queue.DialOpts(srv.Addr(), queue.DialOptions{Queue: "adopt"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	p.PMCs = pmc.SetOf(ps)
	if _, err := p.pushBatch(q, p.NewReport(), tests); err != nil {
		t.Fatalf("%d PMCs: %v", len(ps), err)
	}
	leases, err := cl.LeaseN(nil, 1)
	if err != nil {
		t.Fatalf("%d PMCs: %v", len(ps), err)
	}
	if got := leases[0].Adopt; got == nil || len(got.PMCs) != len(ps) || got.Digest != leases[0].Job.Adopt {
		t.Fatalf("the leased job names list %q and brings %+v, want %d PMCs", leases[0].Job.Adopt, got, len(ps))
	}
	p.PMCs = pmc.SetOf(append(ps, widest(len(ps))))
	if _, err := p.pushBatch(q, p.NewReport(), tests); err == nil || p.exploreUnits != 1 || q.Stats() != (queue.Stats{Leased: 1}) {
		t.Fatalf("%d PMCs: pushBatch answers %v, %d units drawn, queue %+v", len(ps)+1, err, p.exploreUnits, q.Stats())
	}
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
		q, b := pushedQueue(t, p, base, tests, 50)
		var lsr Leaser = localLeaser{q}
		if tcp {
			lsr = serveQueue(t, q, opts.Seed, dial)
		}
		drain(t, q, lsr, NewWorker(p.Env.Clone(), name), crashFirst)
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
		r, _ := foldReport(t, p, b, results, q.DeadLetters())
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
// in-process by the shared recipe — the template and the batch's adoption
// set — and folded, and
// pushed as a batch → flaky TCP → Worker.Do with one abandoned lease
// and one duplicated report, yield deep-equal reports — issues, repro
// state, triage, unknowns and counters: the queue adds delivery, nothing
// else.
func TestQueueFoldEqualsLocalFold(t *testing.T) {
	for _, seed := range []int64{3, 7} {
		opts := triageOpts(seed)
		p, base, tests := campaignFixture(t, opts)

		local := freshCopy(base)
		serialFold(t, p, local, tests, nil)
		p.TriageReport(local)

		q, b := pushedQueue(t, p, base, tests, 50)
		lsr := &dupLeaser{Leaser: serveQueue(t, q, seed, flakyDial(seed))}
		wenv := p.Env.Clone()
		drain(t, q, lsr, NewWorker(wenv, "queue"), true)
		wenv.Close()
		if st := q.Stats(); st.Redelivered == 0 {
			t.Errorf("seed %d: the abandoned lease was never redelivered: %+v", seed, st)
		}
		queued, dups := foldReport(t, p, b, q.Results(), q.DeadLetters())
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
	w := NewWorker(wenv, "joined")
	for turn := 0; turn < joinedTurns; turn++ {
		leases, err := cl.LeaseN(nil, slice)
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

	local := freshCopy(base)
	serialFold(t, p, local, tests, nil)
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

// TestKeepTurnDropsFailedLeases: the worker's lease keeper extends a
// turn's lease only until one extend of it fails, and rests once no lease
// is left, so a lapsed lease or an unreachable server never keeps it
// calling; released, it extends nothing of the turn it kept.
func TestKeepTurnDropsFailedLeases(t *testing.T) {
	l := &extendLeaser{calls: map[uint64]int{}, gone: map[uint64]bool{1: true}}
	deadline := time.Now().Add(40 * time.Millisecond)
	var k leaseKeeper
	k.keepTurn(l, []queue.Lease{{ID: 1, Deadline: deadline}, {ID: 2, Deadline: deadline}})
	defer k.release()
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
	// The next turn is kept the same way, and a released one no more.
	k.keepTurn(l, []queue.Lease{{ID: 3, Deadline: time.Now().Add(40 * time.Millisecond)}})
	waitFor("extended the next turn's lease", func() bool { return l.count(3) >= 1 })
	k.release()
	time.Sleep(10 * time.Millisecond)
	released := l.count(3)
	time.Sleep(100 * time.Millisecond)
	if n := l.count(3); n != released {
		t.Fatalf("keeper extended a released turn's lease: %d calls, then %d", released, n)
	}
}

// TestWorkerNacksJobsWithoutTrials: a job that carries no trial budget, one
// past MaxTrials, or a kernel version no simulated kernel answers to is
// malformed — no worker substitutes a budget or kernel of its own or
// explores without bound — so it is nacked with the reason, counted as
// poisoned, until it dead-letters, and nothing is explored.
func TestWorkerNacksJobsWithoutTrials(t *testing.T) {
	p, _, _, tests := smallCampaign(t)
	q := queue.NewWithOptions(queue.Options{Name: "no-trials", MaxAttempts: 2})
	t.Cleanup(q.Close)
	budgets := []int{0, MaxTrials + 1}
	version := string(p.Env.Cfg.Version)
	want := make(map[int]string)
	for i, ct := range tests {
		job := queue.Job{ID: i, Seed: 1, Trials: budgets[i%2], Version: version, Writer: ct.Writer, Reader: ct.Reader, Hint: ct.Hint}
		want[i] = fmt.Sprintf("trial budget %d", job.Trials)
		if i == 0 {
			// Well budgeted, but for a kernel the worker cannot boot.
			job.Trials, job.Version = 4, "4.19"
			want[i] = `unknown kernel version "4.19"`
		}
		if err := q.Push(job); err != nil {
			t.Fatal(err)
		}
	}
	poisoned := mPoisoned.Value()
	w := NewWorker(p.Env.Clone(), "budgetless")
	drain(t, q, localLeaser{q}, w, false)
	dead, results := q.DeadLetters(), q.Results()
	if len(dead) != len(tests) || len(results) != 0 || len(w.x) != 0 {
		t.Fatalf("%d dead letters, %d results and %d explorers, want %d and none", len(dead), len(results), len(w.x), len(tests))
	}
	for _, d := range dead {
		if d.Attempts != 2 || !strings.Contains(d.Reason, want[d.Job.ID]) {
			t.Errorf("dead job %d: attempts=%d reason=%q, want %q", d.Job.ID, d.Attempts, d.Reason, want[d.Job.ID])
		}
	}
	if n := mPoisoned.Value() - poisoned; n != int64(2*len(tests)) {
		t.Errorf("worker.poisoned rose by %d, want %d: one per nacked delivery", n, 2*len(tests))
	}
}

// aggregate is the delivery accounting of a batch of n jobs from first
// over results, taken as drains of at most chunk results each, and dead:
// the summary and the results it folds, in the order it folds them. Each
// result carries an outcome of one unknown issue naming it, so the
// report's Unknown lists the folded results in fold order.
func aggregate(t *testing.T, first, n int, results []queue.JobResult, dead []queue.DeadJob, chunk int) (DistSummary, []queue.JobResult) {
	t.Helper()
	named := make(map[string]queue.JobResult, len(results))
	drained := slices.Clone(results)
	for i := range drained {
		desc := fmt.Sprintf("result %d", i)
		out := sched.Outcome{Issues: []detect.Issue{{Kind: detect.KindPanic, Desc: desc}}, IssueTrials: []int{0}}
		drained[i].Outcome = out.Encode(nil)
		named[desc] = results[i]
	}
	p := &Pipeline{segs: cover.NewSegments(), pairs: cover.New(), exploreUnits: first}
	r := &Report{Issues: make(map[int]IssueRecord)}
	b := p.newBatch(r, make([]sched.ConcurrentTest, n))
	for len(drained) > 0 {
		k := min(chunk, len(drained))
		if err := b.take(drained[:k]); err != nil {
			t.Fatal(err)
		}
		drained = drained[k:]
	}
	sum, err := b.finish(nil, dead)
	if err != nil {
		t.Fatal(err)
	}
	var folded []queue.JobResult
	for _, is := range r.Unknown {
		folded = append(folded, named[is.Desc])
	}
	return sum, folded
}

// TestAggregateResultsFolds pins the delivery accounting: duplicates
// collapse to the first copy, the first copies are folded in job order
// however the results are drained, dead-lettered and missing jobs are
// surfaced instead of silently dropped, and a result naming no enqueued
// job counts for nothing.
func TestAggregateResultsFolds(t *testing.T) {
	for chunk := 1; chunk <= 5; chunk++ {
		aggregateResultsFolds(t, func(first, n int, results []queue.JobResult, dead []queue.DeadJob) (DistSummary, []queue.JobResult) {
			return aggregate(t, first, n, results, dead, chunk)
		})
	}
}

func aggregateResultsFolds(t *testing.T, agg func(int, int, []queue.JobResult, []queue.DeadJob) (DistSummary, []queue.JobResult)) {
	t.Helper()
	results := []queue.JobResult{
		{JobID: 2, Trials: 4, Worker: "a"},
		{JobID: 0, Trials: 2},
		{JobID: 2, Trials: 4, Worker: "b"}, // redelivered copy
		{JobID: 1, Trials: 1},
		{JobID: 6, Trials: 9},
	}
	dead := []queue.DeadJob{{Job: queue.Job{ID: 4}, Attempts: 3, Reason: "poisoned"}}
	sum, first := agg(0, 6, results, dead)
	want := DistSummary{
		Expected:   6,
		Reported:   3,
		Duplicates: 1,
		DeadJobs:   []int{4},
		Missing:    []int{3, 5},
	}
	if !reflect.DeepEqual(sum, want) {
		t.Fatalf("accounting = %+v, want %+v", sum, want)
	}
	if !reflect.DeepEqual(first, []queue.JobResult{results[1], results[3], results[0]}) {
		t.Fatalf("first results = %+v, want jobs 0, 1, 2 with job 2 from worker a", first)
	}
	// A later batch (jobs 4–6) counts its own jobs and nothing of the
	// batch before it.
	later, firstLater := agg(4, 3, results, dead)
	if want := (DistSummary{Expected: 3, Reported: 1, DeadJobs: []int{4}, Missing: []int{5}}); !reflect.DeepEqual(later, want) ||
		!reflect.DeepEqual(firstLater, results[4:]) {
		t.Fatalf("accounting of jobs 4–6 = %+v with %+v, want %+v with job 6", later, firstLater, want)
	}
	if !sum.Lost() {
		t.Fatal("Lost() = false with missing jobs")
	}
	if clean, _ := agg(0, 3, results, nil); clean.Lost() {
		t.Fatalf("Lost() = true for fully-settled campaign: %+v", clean)
	}
}

func TestSettledJobAllocBudget(t *testing.T) {
	// A settled job crosses the queue as its outcome's binary form, encoded
	// into the worker's reused buffer by Worker.Do, copied by Queue.Settle
	// and decoded into reused storage by the fold, on every leaser. One
	// 16-job turn over localLeaser — its lease, its exploration, its settle
	// and the fold of what it settled — is counted per job, setup aside:
	// 17.69 allocations and 2,549 bytes measured (2 vCPUs, Xeon), under
	// budgets of 18.5 and 2,680, the ~5% headroom the budget always had.
	// Before the turn's leases went into storage kept across turns and the
	// fold stopped naming the report's issues for a delivery summary only
	// a campaign keeps: 18.31 and 2,779, under 19.25 and 2,920.
	// Measured the same way before lease records held an index, the queue
	// copied outcomes into a reused arena, the fold decoded into reused
	// storage and the event ring kept attrs as a slice: 34.5 and 5,811
	// (29.75 under 31.25 with the lease left out of the count). Earlier,
	// lease left out: 19.31 under 20.75 before outcomes carried their
	// segment and pair lists and a worker adopted; 21.3 with each lease's
	// copy escaping to the heap again, 41.6 with that and JSON outcomes.
	// One queue serves every turn, so its reaper starts (and allocates)
	// before the first measured one.
	const turn = 16
	opts := triageOpts(3)
	opts.Trials = 2
	p, base, tests := campaignFixture(t, opts)
	tests = tests[:turn]
	env := p.Env.Clone()
	defer env.Close()
	w := NewWorker(env, "budget")
	defer w.Close()
	q := queue.New()
	defer q.Close()
	var leases []queue.Lease
	perJob := func() (allocs, bytes float64) {
		p.exploreUnits = 0
		b, err := p.pushBatch(q, freshCopy(base), tests)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		leases, err = q.LeaseN(leases[:0], turn)
		if err != nil || len(leases) != turn {
			t.Fatalf("LeaseN(%d) = %d leases, %v", turn, len(leases), err)
		}
		settled, _ := w.Do(localLeaser{q}, leases)
		sum, err := b.finish(q.Results(), nil)
		runtime.ReadMemStats(&after)
		if err != nil || settled != turn || sum.Reported != turn {
			t.Fatalf("turn settled %d of %d jobs, fold: %v", settled, turn, err)
		}
		return float64(after.Mallocs-before.Mallocs) / turn, float64(after.TotalAlloc-before.TotalAlloc) / turn
	}
	perJob() // warm the worker's explorer scratch and start the reaper
	allocs, bytes := perJob()
	for i := 0; i < 4; i++ {
		a, b := perJob()
		allocs, bytes = min(allocs, a), min(bytes, b)
	}
	t.Logf("%.2f allocations, %.0f bytes per settled job", allocs, bytes)
	if allocs > 18.5 {
		t.Fatalf("%.2f allocations per settled job, want ≤ 18.5", allocs)
	}
	if bytes > 2680 {
		t.Fatalf("%.0f bytes per settled job, want ≤ 2680", bytes)
	}
}

// TestStreamingFoldEqualsLocalFold: a campaign's coordinator folds each
// batch as its results settle (the batch's take after every drain, its
// finish once the queue has settled), and what it folds equals the local fold of
// the same tests and seeds byte for byte, DistSummary included, however
// the results arrive. Two batches share one queue: the first at partial
// coverage, its jobs naming an adoption list, the second at full coverage,
// naming none. In each, a worker joined over loopback TCP holds the first
// two jobs while the in-process worker settles the rest, so those settle
// out of job order; one of them is reported twice; and the third job is
// dead-lettered, which holds the fold until the batch settles.
func TestStreamingFoldEqualsLocalFold(t *testing.T) {
	opts := DefaultOptions()
	opts.Seed, opts.FuzzBudget, opts.CorpusCap, opts.TestBudget, opts.Trials = 3, 300, 60, 400, 4
	p, base, all := campaignFixture(t, opts)
	const half = 8
	if len(all) < 2*half {
		t.Fatalf("%d tests, want at least %d", len(all), 2*half)
	}
	batches := [][]sched.ConcurrentTest{all[:half], all}
	if len(p.adoptable(batches[0])) == 0 || len(p.adoptable(batches[1])) != 0 {
		t.Fatalf("batches adopt from %d and %d PMCs, want some and none",
			len(p.adoptable(batches[0])), len(p.adoptable(batches[1])))
	}

	q := queue.NewWithOptions(queue.Options{Name: "streaming", LeaseTimeout: time.Minute, MaxAttempts: 1})
	t.Cleanup(q.Close)
	joined := serveQueue(t, q, opts.Seed, nil)
	local := localLeaser{q}
	wenv := p.Env.Clone()
	t.Cleanup(wenv.Close)
	w, wj := NewWorker(wenv, "local"), NewWorker(wenv, "joined")
	t.Cleanup(w.Close)
	t.Cleanup(wj.Close)
	lease := func(lsr Leaser, n int) []queue.Lease {
		t.Helper()
		leases, err := lsr.LeaseN(nil, n)
		if err != nil {
			t.Fatal(err)
		}
		return leases
	}
	r := freshCopy(base)
	p.exploreUnits = 0
	var dead []int
	for b, tests := range batches {
		bt, err := p.pushBatch(q, r, tests)
		if err != nil {
			t.Fatal(err)
		}
		fold := func() {
			t.Helper()
			if err := bt.take(q.Results()); err != nil {
				t.Fatal(err)
			}
		}
		held := lease(joined, 2)
		if len(held) != 2 || (b == 0) != (held[0].Adopt != nil) {
			t.Fatalf("batch %d: the joined worker leased %d jobs with list %v", b, len(held), held[0].Adopt)
		}
		poisoned := lease(local, 1)[0]
		if err := q.Nack(poisoned.ID, "poisoned"); err != nil {
			t.Fatal(err)
		}
		dead = append(dead, poisoned.Job.ID)
		before := r.TestedTests
		w.Do(&dupLeaser{Leaser: local}, lease(local, 3))
		fold()
		for q.Stats().Pending > 0 {
			w.Do(local, lease(local, 3))
			fold()
		}
		if r.TestedTests != before {
			t.Fatalf("batch %d: %d jobs folded ahead of the two held ones", b, r.TestedTests-before)
		}
		wj.Do(&dupLeaser{Leaser: joined}, held)
		fold()
		if r.TestedTests != before+2 {
			t.Fatalf("batch %d: %d jobs folded past the dead-lettered one, want the two before it", b, r.TestedTests-before)
		}
		sum, err := bt.finish(q.Results(), q.DeadLetters())
		if err != nil {
			t.Fatal(err)
		}
		r.addDelivery(sum)
	}

	// The local fold of every job but the dead ones, from the same seeds.
	want := freshCopy(base)
	p.exploreUnits, p.segs, p.pairs = 0, cover.NewSegments(), cover.New()
	sum := DistSummary{DeadJobs: dead, Duplicates: 2 * len(batches)}
	for _, tests := range batches {
		first := p.exploreUnits
		kept := func(i int) bool { return !slices.Contains(dead, first+i) }
		serialFold(t, p, want, tests, kept)
		sum.Expected += len(tests)
		for i := range tests {
			if kept(i) {
				sum.Reported++
			}
		}
	}
	sum.Trials, sum.Exercised, sum.BugIDs = want.TrialsRun, want.Exercised, want.BugIDs()
	for _, rec := range want.Issues {
		sum.IssueIDs = append(sum.IssueIDs, rec.Issue.ID())
	}
	for _, is := range want.Unknown {
		sum.IssueIDs = append(sum.IssueIDs, is.ID())
	}
	slices.Sort(sum.IssueIDs)
	want.Distributed = &sum
	if len(want.Issues)+len(want.Unknown) == 0 || want.CoverPairs == 0 {
		t.Fatalf("the local fold found nothing to compare: %d issues, %d unknown, %d pairs", len(want.Issues), len(want.Unknown), want.CoverPairs)
	}
	got, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if exp, _ := json.Marshal(want); !bytes.Equal(got, exp) {
		t.Fatalf("the streaming fold differs from the local fold:\n%s\nvs\n%s", got, exp)
	}
}

// listLeaser records how many jobs it leased under each adoption list.
type listLeaser struct {
	Leaser
	mu    sync.Mutex
	lists map[string]int
}

func (l *listLeaser) LeaseN(dst []queue.Lease, n int) ([]queue.Lease, error) {
	leases, err := l.Leaser.LeaseN(dst, n)
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ls := range leases {
		if ls.Adopt != nil {
			l.lists[ls.Adopt.Digest]++
		}
	}
	return leases, err
}

// TestJoinedWorkerGetsEachListOnce: a worker joined over TCP to a campaign
// at partial coverage receives each batch's adoption list once on its
// connection, however many of the batch's jobs it leases: the listener
// sends as many lists as the worker met, not one per job. The executor
// waits at the gate for every batch while the worker drains it a job per
// turn.
func TestJoinedWorkerGetsEachListOnce(t *testing.T) {
	spec := smallSpec("lists", 3)
	spec.TestBudget, spec.Feedback, spec.FeedbackRounds = 24, true, 3
	reg := queue.NewRegistry(queue.Options{})
	defer reg.Close()
	srv, err := queue.ServeRegistry(reg, "127.0.0.1:0", queue.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	gate := make(chan struct{})
	c, err := StartCampaign(spec, CampaignEnv{Registry: reg, ExecGate: gate})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(nil, "joined")
	defer w.Close()
	var lsr *listLeaser
	sent := obs.C(obs.MQueueNetAdopt).Value()
	for pushed := int64(0); ; {
		// Wait for the next batch, or the end of the campaign.
		for end := time.Now().Add(time.Minute); c.Status().Expected == pushed; time.Sleep(2 * time.Millisecond) {
			if c.Report() != nil {
				break
			}
			if time.Now().After(end) {
				t.Fatal("the campaign pushed no batch after", pushed, "jobs")
			}
		}
		if c.Report() != nil {
			break
		}
		pushed = c.Status().Expected
		if lsr == nil {
			cl, err := queue.DialOpts(srv.Addr(), queue.DialOptions{Queue: c.QueueName()})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			lsr = &listLeaser{Leaser: cl, lists: make(map[string]int)}
		}
		if _, err := w.Join(lsr, 1, 0); err != nil {
			t.Fatal(err)
		}
		gate <- struct{}{}
	}
	if _, err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	sent = obs.C(obs.MQueueNetAdopt).Value() - sent
	jobs := 0
	for _, n := range lsr.lists {
		jobs += n
	}
	t.Logf("%d jobs leased under %d lists, %d lists sent", jobs, len(lsr.lists), sent)
	if int(sent) != len(lsr.lists) || len(lsr.lists) < 2 || jobs < 2*len(lsr.lists) {
		t.Fatalf("the worker leased %d jobs under %d lists and was sent %d lists, want one per list", jobs, len(lsr.lists), sent)
	}
}
