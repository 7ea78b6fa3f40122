package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"snowboard/internal/kernel"
	"snowboard/internal/obs"
	"snowboard/internal/queue"
	"snowboard/internal/store"
)

// This file is the campaign control plane's core: a Campaign is one
// tenant's pipeline run wrapped in a submit/pause/resume/status handle,
// executing its concurrent tests through a named queue shared with every
// other tenant and taking execution turns from a fair scheduler. cmd/sbd
// hosts many of these behind an HTTP API; the tests in campaign_test.go
// drive them directly.

// campaignKeyPrefix versions the campaign manifest/report memo schema.
const campaignKeyPrefix = "sbd-campaign-v1"

// CampaignSpec is the JSON submission shape for one campaign: the subset
// of Options that is serializable and safe to accept over the wire (the
// method travels by name, the kernel version as a string). The canonical
// manifest encoding of the defaulted spec is the campaign's identity:
// submitting byte-equivalent work twice yields the same campaign ID.
type CampaignSpec struct {
	Name           string `json:"name,omitempty"`    // display name (defaults to the method)
	Version        string `json:"version"`           // simulated kernel version
	Method         string `json:"method"`            // generation method name (core.Methods)
	Seed           int64  `json:"seed"`              // deterministic seed
	FuzzBudget     int    `json:"fuzz_budget"`       // stage-1 sequential executions
	CorpusCap      int    `json:"corpus_cap"`        // stage-1 corpus size cap
	TestBudget     int    `json:"test_budget"`       // stage-4 concurrent tests
	Trials         int    `json:"trials"`            // interleaving trials per test
	Workers        int    `json:"workers,omitempty"` // local-stage fan-out (0 = per CPU)
	Feedback       bool   `json:"feedback,omitempty"`
	FeedbackRounds int    `json:"feedback_rounds,omitempty"`
}

// WithDefaults fills unset fields from DefaultOptions.
func (s CampaignSpec) WithDefaults() CampaignSpec {
	d := DefaultOptions()
	if s.Version == "" {
		s.Version = string(d.Version)
	}
	if s.Method == "" {
		s.Method = d.Method.Name
	}
	if s.Name == "" {
		s.Name = s.Method
	}
	if s.Seed == 0 {
		s.Seed = d.Seed
	}
	if s.FuzzBudget <= 0 {
		s.FuzzBudget = d.FuzzBudget
	}
	if s.CorpusCap <= 0 {
		s.CorpusCap = d.CorpusCap
	}
	if s.TestBudget <= 0 {
		s.TestBudget = d.TestBudget
	}
	if s.Trials <= 0 {
		s.Trials = d.Trials
	}
	return s
}

// Budget ceilings: a spec past one is rejected, and a worker nacks a job
// whose trial budget is past MaxTrials as malformed, so one bad submission
// or job cannot keep an executor exploring — and extending its lease —
// indefinitely. Each is at least 16× the largest budget any test, example,
// CI job, README command or bench/ spec uses.
const (
	MaxTrials         = 1 << 16 // interleaving trials per test
	MaxTestBudget     = 1 << 16 // stage-4 concurrent tests
	MaxFuzzBudget     = 1 << 20 // stage-1 fuzz candidates
	MaxCorpusCap      = 1 << 16 // stage-1 corpus size cap
	MaxFeedbackRounds = 1 << 8  // feedback budget-allocation rounds
)

// Validate rejects specs that cannot build Options. Call on the defaulted
// spec.
func (s CampaignSpec) Validate() error {
	if _, err := kernel.ParseVersion(s.Version); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	if _, ok := MethodByName(s.Method); !ok {
		return fmt.Errorf("campaign: unknown method %q", s.Method)
	}
	if s.FuzzBudget <= 0 || s.TestBudget <= 0 || s.Trials <= 0 {
		return fmt.Errorf("campaign: budgets must be positive (fuzz=%d tests=%d trials=%d)",
			s.FuzzBudget, s.TestBudget, s.Trials)
	}
	if s.FuzzBudget > MaxFuzzBudget || s.CorpusCap > MaxCorpusCap || s.TestBudget > MaxTestBudget ||
		s.Trials > MaxTrials || s.FeedbackRounds > MaxFeedbackRounds {
		return fmt.Errorf("campaign: budgets over their ceilings (fuzz=%d/%d corpus=%d/%d tests=%d/%d trials=%d/%d rounds=%d/%d)",
			s.FuzzBudget, MaxFuzzBudget, s.CorpusCap, MaxCorpusCap, s.TestBudget, MaxTestBudget,
			s.Trials, MaxTrials, s.FeedbackRounds, MaxFeedbackRounds)
	}
	return nil
}

// Manifest returns the canonical JSON encoding of the defaulted spec —
// the durable, content-addressed submission record (store.KindCampaign).
func (s CampaignSpec) Manifest() ([]byte, error) {
	s = s.WithDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(s)
}

// ID derives the campaign's identity from its manifest: a short digest,
// stable across submissions and server restarts.
func (s CampaignSpec) ID() (string, error) {
	m, err := s.Manifest()
	if err != nil {
		return "", err
	}
	return store.Key(campaignKeyPrefix, string(m)).Short(), nil
}

// BuildOptions converts the spec into pipeline Options rooted at stateDir.
func (s CampaignSpec) BuildOptions(stateDir string) (Options, error) {
	s = s.WithDefaults()
	if err := s.Validate(); err != nil {
		return Options{}, err
	}
	m, _ := MethodByName(s.Method)
	o := DefaultOptions()
	o.Version = kernel.Version(s.Version)
	o.Seed = s.Seed
	o.FuzzBudget = s.FuzzBudget
	o.CorpusCap = s.CorpusCap
	o.Method = m
	o.TestBudget = s.TestBudget
	o.Trials = s.Trials
	o.Workers = s.Workers
	o.Feedback = s.Feedback
	o.FeedbackRounds = s.FeedbackRounds
	o.StateDir = stateDir
	return o, nil
}

// TurnScheduler hands out execution turns fairly across campaigns: FIFO
// admission with at most slots concurrent holders. Each campaign acquires
// a turn, executes a bounded slice of jobs, and releases; because
// finishers rejoin the tail of the line, steady-state service order is
// round-robin and per-campaign throughput stays within a small factor at
// equal budgets, no matter how many tenants pile on.
type TurnScheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	slots   int
	busy    int
	waiting []string
}

// NewTurnScheduler returns a scheduler admitting slots concurrent turns
// (minimum 1).
func NewTurnScheduler(slots int) *TurnScheduler {
	if slots < 1 {
		slots = 1
	}
	t := &TurnScheduler{slots: slots}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// Acquire blocks until id reaches the head of the line and a slot frees.
func (t *TurnScheduler) Acquire(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.waiting = append(t.waiting, id)
	for t.busy >= t.slots || t.waiting[0] != id {
		t.cond.Wait()
	}
	t.waiting = t.waiting[1:]
	t.busy++
	t.cond.Broadcast()
}

// Release returns the slot taken by Acquire.
func (t *TurnScheduler) Release() {
	t.mu.Lock()
	t.busy--
	t.cond.Broadcast()
	t.mu.Unlock()
}

// CampaignEnv is the shared control-plane context a campaign runs in: the
// artifact store root (durability), the multi-queue registry, and the fair
// turn scheduler. One env is shared by every campaign on a server. A
// campaign's executor leases its queue in-process; workers on other
// machines join it through whatever listener serves the registry.
type CampaignEnv struct {
	StateDir string          // artifact store root ("" = memory only, no resume)
	Registry *queue.Registry // named per-campaign queues (required)
	Slice    int             // jobs leased per fair-scheduler turn (default TurnJobs)

	// Addr is the registry listener's TCP address. Nothing reads it: the
	// executor leases in-process. It stays only because bench/ sets it.
	Addr string

	// Turns, when set, arbitrates execution fairly across campaigns; nil
	// lets every campaign run unthrottled.
	Turns *TurnScheduler

	// ExecGate, when set, is a start barrier: every campaign blocks here
	// after pushing its jobs and before executing the first one, so
	// fairness tests measure campaigns that began together.
	ExecGate <-chan struct{}

	// Fault, when set, simulates a worker crash: a true return abandons
	// the lease for (jobID, attempt) without acking, leaving redelivery to
	// the lease reaper.
	Fault func(jobID, attempt int) bool
}

func (e CampaignEnv) slice() int {
	if e.Slice <= 0 {
		return TurnJobs
	}
	return e.Slice
}

// Campaign states.
const (
	CampaignPending = "pending"
	CampaignRunning = "running"
	CampaignPaused  = "paused"
	CampaignDone    = "done"
	CampaignFailed  = "failed"
)

// Campaign is one running (or finished) tenant: spec, identity, live
// progress counters, and the pause/resume gate. All methods are safe for
// concurrent use.
type Campaign struct {
	Spec  CampaignSpec // defaulted spec
	ID    string       // manifest digest (short)
	Trace string       // flight-recorder trace ID

	env      CampaignEnv
	manifest []byte
	started  time.Time // submission: the base of the live exec_per_min

	mu     sync.Mutex
	cond   *sync.Cond
	state  string
	paused bool
	err    error
	report *Report

	expected  atomic.Int64 // jobs pushed for execution
	executed  atomic.Int64 // jobs this campaign's executor settled
	exercised atomic.Int64

	done chan struct{}
}

// CampaignStatus is the JSON progress snapshot served at /campaigns.
type CampaignStatus struct {
	ID          string       `json:"id"`
	Name        string       `json:"name"`
	Trace       string       `json:"trace"`
	State       string       `json:"state"`
	Expected    int64        `json:"expected_jobs"`
	Executed    int64        `json:"executed"`
	Exercised   int64        `json:"exercised"`
	DeadLetters int64        `json:"dead_letters"`
	Issues      int          `json:"issues"`
	QueueDepth  int64        `json:"queue_depth"`
	ExecPerMin  float64      `json:"exec_per_min"` // tests/min since submission; Report.ExecPerMin once done
	Error       string       `json:"error,omitempty"`
	Distributed *DistSummary `json:"distributed,omitempty"`
}

// StartCampaign validates, registers, and launches a campaign in env; the
// returned handle is live immediately. With a state dir, the manifest is
// persisted as a KindCampaign artifact so a restarted server can
// re-enumerate and resume every submission, and the finished report is
// memoized so a completed campaign resumes byte-identically without
// re-executing.
func StartCampaign(spec CampaignSpec, env CampaignEnv) (*Campaign, error) {
	if env.Registry == nil {
		return nil, errors.New("campaign: env.Registry is required")
	}
	spec = spec.WithDefaults()
	manifest, err := spec.Manifest()
	if err != nil {
		return nil, err
	}
	id := store.Key(campaignKeyPrefix, string(manifest)).Short()
	if env.StateDir != "" {
		st, err := store.Open(env.StateDir)
		if err != nil {
			return nil, err
		}
		if _, err := st.Put(store.KindCampaign, manifest); err != nil {
			return nil, fmt.Errorf("campaign: persist manifest: %w", err)
		}
	}
	oc := obs.StartCampaign(spec.Name + "/" + id)
	c := &Campaign{
		Spec:     spec,
		ID:       id,
		Trace:    oc.Trace,
		env:      env,
		manifest: manifest,
		started:  oc.StartedAt,
		state:    CampaignPending,
		done:     make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	go c.run()
	return c, nil
}

// LoadCampaignSpecs enumerates the persisted campaign manifests under
// stateDir — what a restarted control plane resubmits to resume every
// in-flight campaign.
func LoadCampaignSpecs(stateDir string) ([]CampaignSpec, error) {
	st, err := store.Open(stateDir)
	if err != nil {
		return nil, err
	}
	var specs []CampaignSpec
	for _, d := range st.List(store.KindCampaign) {
		payload, err := st.Get(store.KindCampaign, d)
		if err != nil {
			obs.Diag.Printf("campaign: skipping unreadable manifest %s: %v", d.Short(), err)
			continue
		}
		var s CampaignSpec
		if err := json.Unmarshal(payload, &s); err != nil {
			obs.Diag.Printf("campaign: skipping undecodable manifest %s: %v", d.Short(), err)
			continue
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// Pause stops the campaign at its next checkpoint (between stages, or
// between execution slices); jobs already leased finish first.
func (c *Campaign) Pause() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == CampaignRunning || c.state == CampaignPending {
		c.paused = true
		c.state = CampaignPaused
	}
}

// Resume lifts a Pause.
func (c *Campaign) Resume() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.paused {
		c.paused = false
		c.state = CampaignRunning
		c.cond.Broadcast()
	}
}

// gate blocks while the campaign is paused.
func (c *Campaign) gate() {
	c.mu.Lock()
	for c.paused {
		c.cond.Wait()
	}
	c.mu.Unlock()
}

// Wait blocks until the campaign finishes and returns its report.
func (c *Campaign) Wait() (*Report, error) {
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.report, c.err
}

// Report returns the finished report (nil until done).
func (c *Campaign) Report() *Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.report
}

// QueueName returns the campaign's queue name in the shared registry.
func (c *Campaign) QueueName() string { return "campaign." + c.ID }

// Status snapshots progress: live counters while the campaign runs, the
// report's once done, so a memo-resumed campaign's status equals its run's.
func (c *Campaign) Status() CampaignStatus {
	c.mu.Lock()
	state, err, r := c.state, c.err, c.report
	c.mu.Unlock()
	st := CampaignStatus{
		ID:        c.ID,
		Name:      c.Spec.Name,
		Trace:     c.Trace,
		State:     state,
		Expected:  c.expected.Load(),
		Executed:  c.executed.Load(),
		Exercised: c.exercised.Load(),
	}
	if r != nil {
		if st.Distributed = r.Distributed; r.Distributed != nil {
			st.DeadLetters = int64(len(r.Distributed.DeadJobs))
		}
		st.Executed, st.Exercised = int64(r.TestedTests), int64(r.Exercised)
		st.Expected = st.Executed + st.DeadLetters
		st.Issues, st.ExecPerMin = len(r.Issues), r.ExecPerMin()
	} else {
		st.ExecPerMin = float64(st.Executed) / time.Since(c.started).Minutes()
	}
	if q := c.env.Registry.Get(c.QueueName()); q != nil {
		st.QueueDepth = int64(q.Stats().Pending)
	}
	if err != nil {
		st.Error = err.Error()
	}
	return st
}

func (c *Campaign) setState(s string) {
	c.mu.Lock()
	if !c.paused || s == CampaignDone || s == CampaignFailed {
		c.state = s
	}
	c.mu.Unlock()
}

func (c *Campaign) finish(r *Report, err error) {
	c.mu.Lock()
	c.report, c.err = r, err
	if err != nil {
		c.state = CampaignFailed
	} else {
		c.state = CampaignDone
	}
	c.paused = false
	c.cond.Broadcast()
	c.mu.Unlock()
	attrs := []obs.Attr{obs.A("campaign", c.ID)}
	if err != nil {
		attrs = append(attrs, obs.A("error", err.Error()))
	}
	obs.EmitTrace(c.Trace, obs.EvCampaignDone, attrs...)
	close(c.done)
}

// reportKey memoizes the whole campaign: same manifest, same report. v2
// reports carry their findings; an older sbd's v1 memo is left unserved.
func (c *Campaign) reportKey() store.Digest {
	return store.Key(campaignKeyPrefix, "report-v2", string(c.manifest))
}

// run is the campaign goroutine.
func (c *Campaign) run() {
	c.gate()
	c.setState(CampaignRunning)
	c.finish(c.execute())
}

// execute is local stages 1–3 (memoized through the shared store), then
// stage 4 through the campaign's named queue under the fair scheduler.
// The finished report is memoized campaign-level, so a restarted server
// resumes completed campaigns byte-identically and in-flight ones re-run
// only what the stage memos don't cover.
func (c *Campaign) execute() (*Report, error) {
	opts, err := c.Spec.BuildOptions(c.env.StateDir)
	if err != nil {
		return nil, err
	}
	p, err := OpenPipeline(opts)
	if err != nil {
		return nil, err
	}
	// Before finish reports the campaign done. Covers the feedback path's
	// worker environments and the queue path's Worker, which explores on
	// p.Env.
	defer p.Close()
	// The pipeline's stage, triage and feedback events are this tenant's,
	// not the process default campaign's.
	p.trace = c.Trace
	if r, out, ok := loadMemo(p, "campaign", c.reportKey(), reportCodec, nil); ok {
		// The whole campaign is memoized: resume instantly with the
		// stored report, byte-for-byte what the uninterrupted run wrote.
		obs.Diag.Printf("stage campaign: cache hit (report %s, %d issues)", out.Short(), len(r.Issues))
		return r, nil
	}

	r := p.NewReport()
	p.BuildCorpus(r)
	c.gate()
	if err := p.ProfileAll(r); err != nil {
		return nil, err
	}
	c.gate()
	p.IdentifyPMCs(r)
	c.gate()

	if c.Spec.Feedback {
		// Feedback stays local: each round's budget depends on the last
		// round's segment yields, and queue workers run the bare template,
		// which tracks no segments (see ExecuteTests). Rounds still memoize.
		p.RunFeedback(r, opts.TestBudget)
		p.TriageReport(r)
	} else if err := c.runDistributed(p, r, opts); err != nil {
		return nil, err
	}

	// Metrics deliberately stay uncaptured: the obs registry is shared by
	// every tenant and varies run to run, and the campaign report memo
	// must be byte-identical across resumes.
	if d := saveMemo(p, "campaign", c.reportKey(), reportCodec, r, nil); !d.IsZero() {
		obs.Diag.Printf("stage campaign: report artifact %s persisted", d.Short())
	}
	return r, nil
}

// runDistributed pushes the generated tests onto the campaign's named
// queue, executes them in-process, taking fair-scheduler turns between
// slices, and folds what came back — from this executor and from any
// worker that joined the queue over the registry's listener. It closes the
// queue on return, which stops its lease reaper and sends a joined sbexec
// ErrClosed; starting the campaign again opens a fresh queue.
func (c *Campaign) runDistributed(p *Pipeline, r *Report, opts Options) error {
	cts := p.GenerateTests(r, opts.TestBudget)
	q := c.env.Registry.Open(c.QueueName())
	defer q.Close()
	if err := p.PushTests(q, cts, c.Trace); err != nil {
		return fmt.Errorf("campaign %s: %w", c.ID, err)
	}
	c.expected.Store(int64(len(cts)))

	if c.env.ExecGate != nil {
		<-c.env.ExecGate
	}
	span := obs.StartSpan("stage.exec")
	c.executeLoop(p, q)
	r.ExecTime += span.End()

	// Every job settled, by this executor or an sbexec that joined the queue.
	if err := p.FoldResults(r, cts, q.Results(), q.DeadLetters()); err != nil {
		return fmt.Errorf("campaign %s: %w", c.ID, err)
	}
	if sum := r.Distributed; sum.Lost() {
		return fmt.Errorf("campaign %s: jobs neither reported nor dead-lettered: %v", c.ID, sum.Missing)
	}
	return nil
}

// executeLoop drains the campaign's queue in fair-scheduler slices until
// every job is settled, leasing and settling each turn in-process: the
// queue lives here, so a turn costs no round trip and no job encoding. The
// turn-taking, the pause gate and the Fault hook are the campaign's; what
// a job computes is Worker.Do's, so redelivery — to this executor, a
// joined worker, or a future incarnation after a restart — reproduces
// byte-identical results.
func (c *Campaign) executeLoop(p *Pipeline, q *queue.Queue) {
	// By-reference jobs resolve against the pipeline's in-memory corpus,
	// no store round-trip needed.
	w := NewWorker(p.Env, "sbd/"+c.ID,
		func(job *queue.Job) error { return job.Resolve(p.Corpus) })
	lsr := localLeaser{q}
	slice := c.env.slice()
	for {
		st := q.Stats()
		if st.Pending == 0 && st.Leased == 0 {
			return
		}
		c.gate()
		if c.env.Turns != nil {
			c.env.Turns.Acquire(c.ID)
		}
		// A turn is one lease for the whole slice and one settle. The queue
		// refuses a lease only as empty or closed, and either leases nothing.
		leases, _ := lsr.LeaseN(slice)
		held := leases[:0]
		for _, ls := range leases {
			if c.env.Fault != nil && c.env.Fault(ls.Job.ID, ls.Attempt) {
				// Simulated worker crash: walk away mid-lease. The reaper
				// expires it and the job redelivers or dead-letters.
				continue
			}
			held = append(held, ls)
		}
		settled, exercised := w.Do(lsr, held)
		c.executed.Add(int64(settled))
		c.exercised.Add(int64(exercised))
		if c.env.Turns != nil {
			c.env.Turns.Release()
		}
		st = q.Stats()
		if st.Pending == 0 && st.Leased > 0 {
			// Stragglers: leases abandoned (Fault) or held by a joined
			// sbexec. Yield until they settle or the reaper takes them.
			time.Sleep(5 * time.Millisecond)
		}
	}
}
