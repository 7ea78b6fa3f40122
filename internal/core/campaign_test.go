package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"snowboard/internal/queue"
)

// smallSpec returns a campaign small enough for unit tests while still
// exercising every stage.
func smallSpec(name string, seed int64) CampaignSpec {
	return CampaignSpec{
		Name:       name,
		Seed:       seed,
		FuzzBudget: 60,
		CorpusCap:  20,
		TestBudget: 6,
		Trials:     4,
		Workers:    2,
	}
}

func TestCampaignSpecIdentity(t *testing.T) {
	s := CampaignSpec{}
	d := s.WithDefaults()
	if d.Method == "" || d.Version == "" || d.TestBudget <= 0 {
		t.Fatalf("WithDefaults left holes: %+v", d)
	}
	id1, err := s.ID()
	if err != nil {
		t.Fatal(err)
	}
	id2, err := d.ID()
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("defaulting changed the identity: %s vs %s", id1, id2)
	}
	if len(id1) != 12 {
		t.Fatalf("ID %q is not a short digest", id1)
	}
	other := smallSpec("x", 2)
	id3, err := other.ID()
	if err != nil {
		t.Fatal(err)
	}
	if id3 == id1 {
		t.Fatal("distinct specs share an ID")
	}
	if _, err := (CampaignSpec{Method: "NOPE"}).ID(); err == nil {
		t.Fatal("unknown method validated")
	}
	bad := CampaignSpec{Version: "5.12"}
	if _, err := bad.ID(); err == nil || !strings.Contains(err.Error(), `unknown kernel version "5.12"`) {
		t.Fatalf("unknown kernel version validated: %v", err)
	}
	if _, err := bad.BuildOptions(""); err == nil {
		t.Fatal("BuildOptions accepted an unknown kernel version")
	}
}

// TestFeedbackRoundsShareOneID: a round count that changes nothing about
// the run changes nothing about the campaign ID — a one-shot spec runs no
// rounds whatever it names, and a feedback spec naming none runs
// defaultFeedbackRounds — and a campaign started again under the other
// spelling, on the same state dir, is served its memoized report.
func TestFeedbackRoundsShareOneID(t *testing.T) {
	for _, tc := range []struct {
		a, b CampaignSpec
		id   string
	}{
		{CampaignSpec{Seed: 7, Feedback: true}, CampaignSpec{Seed: 7, Feedback: true, FeedbackRounds: defaultFeedbackRounds}, "d4c214990708"},
		{CampaignSpec{Seed: 7}, CampaignSpec{Seed: 7, FeedbackRounds: 9}, "28cdeed889f5"},
	} {
		a, errA := tc.a.ID()
		b, errB := tc.b.ID()
		if errA != nil || errB != nil || a != b || a != tc.id {
			t.Errorf("%+v is %s (%v), %+v is %s (%v), want both %s", tc.a, a, errA, tc.b, b, errB, tc.id)
		}
	}
	dir := t.TempDir()
	run := func(spec CampaignSpec) (string, []byte) {
		t.Helper()
		reg := queue.NewRegistry(queue.Options{})
		defer reg.Close()
		c, err := StartCampaign(spec, CampaignEnv{StateDir: dir, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Wait()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return c.ID, b
	}
	spec := smallSpec("rounds", 7)
	spec.Feedback, spec.FeedbackRounds = true, 0
	id, first := run(spec)
	spec.FeedbackRounds = defaultFeedbackRounds
	again, second := run(spec)
	if again != id || !bytes.Equal(first, second) {
		t.Fatalf("rounds %d: campaign %s, rounds unset: %s; reports equal (timings and all): %v",
			spec.FeedbackRounds, again, id, bytes.Equal(first, second))
	}
}

// TestCampaignSpecBudgetCeilings: every spec budget validates up to its
// ceiling and is refused one past it. Rounds and workers, whose 0 is "the
// default" and which WithDefaults leaves as they are, are refused below 0
// too. Validate alone is asked: no spec here starts a run.
func TestCampaignSpecBudgetCeilings(t *testing.T) {
	for _, b := range []struct {
		name     string
		ceiling  int
		negative bool // a negative value is refused
		set      func(*CampaignSpec, int)
	}{
		{"fuzz", MaxFuzzBudget, false, func(s *CampaignSpec, n int) { s.FuzzBudget = n }},
		{"corpus", MaxCorpusCap, false, func(s *CampaignSpec, n int) { s.CorpusCap = n }},
		{"tests", MaxTestBudget, false, func(s *CampaignSpec, n int) { s.TestBudget = n }},
		{"trials", MaxTrials, false, func(s *CampaignSpec, n int) { s.Trials = n }},
		{"rounds", MaxFeedbackRounds, true, func(s *CampaignSpec, n int) { s.FeedbackRounds = n }},
		{"workers", MaxWorkers, true, func(s *CampaignSpec, n int) { s.Workers = n }},
	} {
		if b.negative {
			spec := smallSpec("floor", 1)
			b.set(&spec, 0)
			if err := spec.WithDefaults().Validate(); err != nil {
				t.Errorf("%s at 0, its default, refused: %v", b.name, err)
			}
			for _, n := range []int{-1, -3} {
				b.set(&spec, n)
				want := fmt.Sprintf("%s=%d", b.name, n)
				if err := spec.WithDefaults().Validate(); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s at %d validated: %v, want an error naming %q", b.name, n, err, want)
				}
			}
		}
		spec := smallSpec("ceiling", 1)
		b.set(&spec, b.ceiling)
		if err := spec.WithDefaults().Validate(); err != nil {
			t.Errorf("%s at its ceiling %d refused: %v", b.name, b.ceiling, err)
		}
		b.set(&spec, b.ceiling+1)
		if err := spec.WithDefaults().Validate(); err == nil || !strings.Contains(err.Error(), "ceilings") {
			t.Errorf("%s past its ceiling %d validated: %v", b.name, b.ceiling, err)
		}
	}
}

func TestTurnSchedulerFIFOFairness(t *testing.T) {
	// Three contenders taking repeated turns through one slot must be
	// served round-robin: no contender takes two turns while another
	// waits.
	ts := NewTurnScheduler(1)
	// Hold the only slot until all three contenders are in line, so every
	// recorded turn is contended (otherwise a fast starter races through
	// its rounds before the others join).
	ts.Acquire("gate")
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	const rounds = 5
	for _, id := range []string{"a", "b", "c"} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ts.Acquire(id)
				mu.Lock()
				order = append(order, id)
				mu.Unlock()
				ts.Release()
			}
		}(id)
	}
	for {
		ts.mu.Lock()
		n := len(ts.waiting)
		ts.mu.Unlock()
		if n == 3 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ts.Release()
	wg.Wait()
	if len(order) != 3*rounds {
		t.Fatalf("%d turns taken, want %d", len(order), 3*rounds)
	}
	// FIFO re-admission means round-robin while all three contend: within
	// any window of 3 consecutive turns, no id may appear three times —
	// that would be one contender monopolizing the slot past its turn.
	for i := 0; i+3 <= len(order); i++ {
		w := order[i : i+3]
		counts := map[string]int{}
		for _, id := range w {
			counts[id]++
		}
		for id, n := range counts {
			if n == 3 {
				t.Fatalf("contender %s monopolized window %v (full order %v)", id, w, order)
			}
		}
	}
}

func TestCampaignRunsToCompletion(t *testing.T) {
	reg := queue.NewRegistry(queue.Options{})
	defer reg.Close()
	c, err := StartCampaign(smallSpec("unit", 1), CampaignEnv{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if r.Distributed == nil {
		t.Fatal("campaign report has no distributed summary")
	}
	sum := r.Distributed
	if sum.Reported != sum.Expected || sum.Expected == 0 {
		t.Fatalf("reported %d of %d jobs", sum.Reported, sum.Expected)
	}
	if sum.Lost() {
		t.Fatalf("lost jobs: %v", sum.Missing)
	}
	st := c.Status()
	if st.State != CampaignDone || st.Executed != int64(sum.Expected) {
		t.Fatalf("status = %+v, want done with %d executed", st, sum.Expected)
	}
	if st.Trace == "" || st.ID != c.ID {
		t.Fatalf("status identity incomplete: %+v", st)
	}
	// The report is the local fold of what the queue delivered, and the
	// status reads from it.
	if r.TestedTests != sum.Reported || r.TrialsRun != sum.Trials || st.Issues != len(r.Issues) {
		t.Fatalf("report (%d tests, %d trials, %d issues) disagrees with summary %+v / status %+v",
			r.TestedTests, r.TrialsRun, len(r.Issues), sum, st)
	}
	// exec_per_min is a rate — the report's, once done — not the raw count
	// of executed tests.
	if r.ExecTime <= 0 || st.ExecPerMin != r.ExecPerMin() || st.ExecPerMin == float64(st.Executed) {
		t.Fatalf("exec_per_min = %v with %d tests executed in %v (report says %v/min)",
			st.ExecPerMin, st.Executed, r.ExecTime, r.ExecPerMin())
	}
}

// TestCampaignsLeaveNoGoroutines: a pipeline's machines park one coroutine
// per guest thread slot between trials, so every path that builds a
// pipeline has to close it — core.Run, and a campaign's queue (one-shot)
// and local (feedback) paths. A finished campaign also closes its queue,
// so its lease reaper is gone while the registry is still open. Run under
// -race in CI.
func TestCampaignsLeaveNoGoroutines(t *testing.T) {
	settle := func(what string, baseline int) {
		t.Helper()
		// Queue reapers and lease keepers exit on their own, shortly.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: goroutines %d -> %d\n%s", what, baseline, n, buf[:runtime.Stack(buf, true)])
		}
	}
	baseline := runtime.NumGoroutine()
	for _, workers := range []int{1, 2} {
		for i := int64(0); i < 3; i++ {
			opts, err := smallSpec("leak", 20+i).BuildOptions("")
			if err != nil {
				t.Fatal(err)
			}
			opts.Workers = workers
			opts.Feedback = i == 2
			if r, err := Run(opts); err != nil || r.TrialsRun == 0 {
				t.Fatalf("Run: %v, report %+v", err, r)
			}
		}
		settle(fmt.Sprintf("core.Run, workers=%d", workers), baseline)

		reg := queue.NewRegistry(queue.Options{})
		for i := int64(0); i < 3; i++ {
			spec := smallSpec("leak", 30+i)
			spec.Workers = workers
			spec.Feedback = i == 2
			c, err := StartCampaign(spec, CampaignEnv{Registry: reg})
			if err != nil {
				t.Fatal(err)
			}
			if r, err := c.Wait(); err != nil || r.TrialsRun == 0 {
				t.Fatalf("campaign: %v, report %+v", err, r)
			}
		}
		settle(fmt.Sprintf("StartCampaign, workers=%d", workers), baseline)
		reg.Close()
	}
}

func TestCampaignPauseResume(t *testing.T) {
	reg := queue.NewRegistry(queue.Options{})
	defer reg.Close()
	c, err := StartCampaign(smallSpec("pausable", 3), CampaignEnv{Registry: reg, Slice: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Pause()
	// While paused the executor stops at the next slice boundary: the
	// executed counter must go flat.
	settleCampaign(t, c, func() bool { return true })
	before := c.executed.Load()
	time.Sleep(50 * time.Millisecond)
	if got := c.executed.Load(); got > before+1 {
		t.Fatalf("executed advanced %d -> %d while paused", before, got)
	}
	if st := c.Status(); st.State != CampaignPaused && st.State != CampaignDone {
		t.Fatalf("state while paused = %q", st.State)
	}
	c.Resume()
	r, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if r.Distributed == nil || r.Distributed.Lost() {
		t.Fatalf("resume lost work: %+v", r.Distributed)
	}
}

// settleCampaign waits briefly for cond (helper for timing-tolerant
// assertions that don't gate correctness).
func settleCampaign(t *testing.T, c *Campaign, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

func TestCampaignReportMemoByteIdentical(t *testing.T) {
	// The same spec against the same state dir must produce byte-identical
	// report JSON — the second run resumes from the campaign-level memo
	// without executing anything — and serve the same progress counters at
	// /campaigns, for a queue-delivered campaign and a feedback one alike.
	oneShot, feedback := smallSpec("memo", 7), smallSpec("memo-feedback", 7)
	feedback.Feedback = true
	for _, spec := range []CampaignSpec{oneShot, feedback} {
		t.Run(spec.Name, func(t *testing.T) { testReportMemo(t, spec) })
	}
}

func testReportMemo(t *testing.T, spec CampaignSpec) {
	dir := t.TempDir()

	run := func() ([]byte, *Campaign) {
		reg := queue.NewRegistry(queue.Options{})
		defer reg.Close()
		c, err := StartCampaign(spec, CampaignEnv{Registry: reg, StateDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Wait()
		if err != nil {
			t.Fatal(err)
		}
		payload, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return payload, c
	}

	first, c1 := run()
	second, c2 := run()
	if !bytes.Equal(first, second) {
		t.Fatalf("resumed report differs from the original:\n%s\nvs\n%s", first, second)
	}
	if c1.ID != c2.ID {
		t.Fatalf("same spec, different IDs: %s vs %s", c1.ID, c2.ID)
	}
	// The memoized resume executed nothing: its queue was never opened.
	if c2.Status().QueueDepth != 0 {
		t.Fatal("memoized resume touched the queue")
	}
	// A run and its own resume report the same progress.
	counters := func(st CampaignStatus) [5]int64 {
		return [5]int64{st.Expected, st.Executed, st.Exercised, st.DeadLetters, int64(st.Issues)}
	}
	cold, warm := counters(c1.Status()), counters(c2.Status())
	if cold != warm {
		t.Fatalf("status counters (expected, executed, exercised, dead, issues) differ: cold %v, warm %v", cold, warm)
	}
	if cold[0] == 0 || cold[1] != cold[0] {
		t.Fatalf("finished campaign reports expected=%d executed=%d", cold[0], cold[1])
	}

	// The manifest is persisted for restart enumeration.
	specs, err := LoadCampaignSpecs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 {
		t.Fatalf("state dir holds %d campaign manifests, want 1", len(specs))
	}
	gotID, err := specs[0].ID()
	if err != nil {
		t.Fatal(err)
	}
	if gotID != c1.ID {
		t.Fatalf("persisted manifest resolves to %s, want %s", gotID, c1.ID)
	}
}

func TestCampaignFaultInjectionLosesNothing(t *testing.T) {
	// Simulated worker crashes (abandoned leases) on every job's first
	// delivery: the reaper redelivers each one and the campaign still
	// settles every job exactly once.
	reg := queue.NewRegistry(queue.Options{
		LeaseTimeout: 100 * time.Millisecond,
		MaxAttempts:  5,
	})
	defer reg.Close()
	c, err := StartCampaign(smallSpec("crashy", 5), CampaignEnv{
		Registry: reg,
		Fault:    func(jobID, attempt int) bool { return attempt == 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	sum := r.Distributed
	if sum == nil {
		t.Fatal("no distributed summary")
	}
	if sum.Reported != sum.Expected || sum.Lost() || len(sum.DeadJobs) != 0 {
		t.Fatalf("crash-injected campaign did not settle cleanly: %+v", sum)
	}
	// Exactly-once fold: the report counts settled jobs, never the
	// abandoned first deliveries.
	if r.TestedTests != sum.Expected || c.executed.Load() != int64(sum.Expected) {
		t.Fatalf("folded %d tests, executed %d, want %d (double-counted redeliveries?)", r.TestedTests, c.executed.Load(), sum.Expected)
	}
}

func TestPoisonedFeedbackRoundNotCheckpointed(t *testing.T) {
	// A feedback campaign whose first job dead-letters reports it on
	// DeadJobs and leaves no round checkpoint behind: Run on the same state
	// dir resumes nothing and reports what a run on a fresh one does.
	dir := t.TempDir()
	spec := smallSpec("poisoned", 5)
	spec.Feedback = true
	reg := queue.NewRegistry(queue.Options{LeaseTimeout: 50 * time.Millisecond, MaxAttempts: 2})
	defer reg.Close()
	c, err := StartCampaign(spec, CampaignEnv{
		StateDir: dir,
		Registry: reg,
		Fault:    func(jobID, attempt int) bool { return jobID == 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	poisoned, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if sum := poisoned.Distributed; sum == nil || fmt.Sprint(sum.DeadJobs) != "[0]" {
		t.Fatalf("the poisoned campaign's delivery accounting: %+v, want job 0 dead-lettered", sum)
	}
	run := func(dir string) *Report {
		opts, err := spec.BuildOptions(dir)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	resumed, fresh := run(dir), run(t.TempDir())
	if fresh.FeedbackRounds < 2 || poisoned.TestedTests >= fresh.TestedTests {
		t.Fatalf("degenerate: %d rounds; the poisoned campaign folded %d tests, a clean run %d",
			fresh.FeedbackRounds, poisoned.TestedTests, fresh.TestedTests)
	}
	if got, want := normalizeTimings(resumed), normalizeTimings(fresh); !reflect.DeepEqual(got, want) {
		t.Fatalf("Run over the poisoned campaign's state dir differs from a fresh run:\n%+v\nvs\n%+v", got, want)
	}
}

func TestCampaignFaultResultsAreDeterministic(t *testing.T) {
	// Redelivered jobs must report byte-identical results: a crashy run's
	// whole report equals an undisturbed run's.
	clean := func(fault func(int, int) bool, lease time.Duration) []byte {
		reg := queue.NewRegistry(queue.Options{LeaseTimeout: lease, MaxAttempts: 6})
		defer reg.Close()
		c, err := StartCampaign(smallSpec("det", 9), CampaignEnv{Registry: reg, Fault: fault})
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Wait()
		if err != nil {
			t.Fatal(err)
		}
		// Duplicates counts redeliveries that reported twice and the stage
		// timings are wall clock — the only legitimately nondeterministic
		// fields under fault injection.
		r.Distributed.Duplicates = 0
		r.FuzzTime, r.ProfileTime, r.IdentifyTime, r.ClusterTime, r.ExecTime = 0, 0, 0, 0, 0
		payload, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	undisturbed := clean(nil, 0)
	crashy := clean(func(jobID, attempt int) bool { return attempt == 1 && jobID%2 == 0 }, 80*time.Millisecond)
	if !bytes.Equal(undisturbed, crashy) {
		t.Fatalf("fault injection changed the report:\n%s\nvs\n%s", undisturbed, crashy)
	}
}
