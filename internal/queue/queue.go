// Package queue is the lightweight distributed test queue of §4.4.1 ("we
// integrate the execution platform with a lightweight distributed queue so
// that concurrent tests can be distributed in a cloud platform"). It
// provides an in-process queue and a TCP transport (stdlib only) carrying
// JSON-encoded jobs, so exploration work can fan out across workers.
//
// Delivery is at-least-once: workers lease a job (receiving a lease ID and
// deadline), then Ack it on success or Nack it on failure. A background
// reaper redelivers jobs whose lease expired — a preempted or crashed
// worker can never silently lose work — and a job that fails MaxAttempts
// deliveries lands on the dead-letter list instead of retrying forever.
// Because a job carries its exploration seed, a redelivered job produces
// a byte-identical result, so coordinators fold duplicates away and
// campaign reports match an uninterrupted run exactly.
package queue

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"snowboard/internal/corpus"
	"snowboard/internal/obs"
	"snowboard/internal/pmc"
)

// Queue metrics: per-op counters shared by every queue in the process, the
// aggregate depth gauge (each queue contributes deltas, so several queues
// never clobber one another), and the lease-age histogram.
var (
	mPush      = obs.C(obs.MQueuePush)
	mReport    = obs.C(obs.MQueueReport)
	mDepth     = obs.G(obs.MQueueDepth)
	mLease     = obs.C(obs.MQueueLease)
	mAck       = obs.C(obs.MQueueAck)
	mNack      = obs.C(obs.MQueueNack)
	mRedeliver = obs.C(obs.MQueueRedeliver)
	mDead      = obs.C(obs.MQueueDeadLetter)
	mLeaseAge  = obs.H(obs.MQueueLeaseAge)
)

// Job is one unit of exploration work: a concurrent test, carried either
// inline (Writer/Reader programs embedded in the job) or by reference
// (Corpus names a corpus artifact in a shared content-addressed store and
// Pair indexes the two programs inside it). Referencing shrinks the wire
// format to a digest plus two integers regardless of program size and lets
// a fleet of workers share one corpus artifact instead of receiving every
// program inline.
type Job struct {
	ID int `json:"id"`
	// Seed is the exploration seed the coordinator drew for this test —
	// the one local execution would have used — so a result depends on
	// neither the worker nor the delivery attempt.
	Seed int64 `json:"seed"`
	// Trials is the campaign's trial budget per test, set by the
	// coordinator: an outcome is a function of (test, seed, trials), so no
	// executor explores with a budget of its own.
	Trials int          `json:"trials,omitempty"`
	Writer *corpus.Prog `json:"writer,omitempty"`
	Reader *corpus.Prog `json:"reader,omitempty"`
	// Corpus, when non-empty, is the hex content digest of a corpus
	// artifact (store.KindCorpus); Writer/Reader are then resolved from
	// Pair against that corpus via Resolve.
	Corpus string   `json:"corpus,omitempty"`
	Hint   *pmc.PMC `json:"hint,omitempty"`
	Pair   pmc.Pair `json:"pair"`
	// Trace stitches the job to its originating campaign: workers tag the
	// job's events with it, so a distributed run's timeline reads
	// end-to-end. Optional: a job without one emits untagged events.
	Trace string `json:"trace,omitempty"`
}

// Inline reports whether the job carries its programs inline.
func (j *Job) Inline() bool { return j.Writer != nil && j.Reader != nil }

// Resolve fills Writer/Reader from the corpus the job references. It is a
// no-op for inline jobs.
func (j *Job) Resolve(c *corpus.Corpus) error {
	if j.Inline() {
		return nil
	}
	if c == nil {
		return fmt.Errorf("queue: job %d references corpus %.12s but no corpus given", j.ID, j.Corpus)
	}
	if j.Pair.Writer < 0 || j.Pair.Writer >= c.Len() || j.Pair.Reader < 0 || j.Pair.Reader >= c.Len() {
		return fmt.Errorf("queue: job %d pair (%d,%d) out of range for corpus of %d tests",
			j.ID, j.Pair.Writer, j.Pair.Reader, c.Len())
	}
	j.Writer = c.Progs[j.Pair.Writer]
	j.Reader = c.Progs[j.Pair.Reader]
	if j.Pair.Writer == j.Pair.Reader {
		// Duplicate pairing runs a program against a copy of itself; clone so
		// resolution matches what inline generation would have carried.
		j.Reader = j.Reader.Clone()
	}
	return nil
}

// JobResult carries a worker's findings back. A redelivered job may report
// more than once; everything except Worker is a pure function of the job
// (which carries its seed), so coordinators deduplicate by JobID and any
// copy is representative.
type JobResult struct {
	JobID  int `json:"job_id"`
	Trials int `json:"trials"`
	// Outcome is the whole exploration outcome in sched.Outcome's binary
	// form, encoded once by the worker (Outcome.Encode) and decoded once by
	// the coordinator's fold (Outcome.Decode), whether it was settled
	// in-process or over TCP: on the wire it rides a settle frame's trailer
	// as these very bytes, never inside the JSON header.
	Outcome []byte `json:"-"`
	Worker  string `json:"worker,omitempty"`
}

// ErrClosed is returned by operations on a closed queue.
var ErrClosed = errors.New("queue: closed")

// ErrEmpty is LeaseN's answer when no job is pending.
var ErrEmpty = errors.New("queue: empty")

// ErrUnknownLease is returned by Settle/Nack/Extend when the lease ID is not
// outstanding — typically because the lease already expired and the job was
// redelivered, or because it was already settled. A worker seeing this on
// a settle can treat it as benign: the result is recorded and the
// duplicate delivery will be folded away by the coordinator.
var ErrUnknownLease = errors.New("queue: unknown lease")

// Defaults for Options.
const (
	DefaultLeaseTimeout = 30 * time.Second
	DefaultMaxAttempts  = 3
)

// Options configure a queue's delivery semantics.
type Options struct {
	// Name labels this queue's depth gauge ("queue.<name>.depth"); empty
	// picks a process-unique "q<n>".
	Name string
	// LeaseTimeout is how long a worker holds a leased job before the
	// reaper takes it back for redelivery (default 30s). Workers running
	// long jobs should Extend.
	LeaseTimeout time.Duration
	// MaxAttempts bounds delivery attempts per job (default 3). A job
	// whose attempts are exhausted is dead-lettered, never silently
	// dropped and never retried forever.
	MaxAttempts int
}

func (o Options) withDefaults() Options {
	if o.Name == "" {
		o.Name = fmt.Sprintf("q%d", queueSeq.Add(1))
	}
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = DefaultLeaseTimeout
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = DefaultMaxAttempts
	}
	return o
}

var queueSeq atomic.Int64

// Lease is one granted delivery of a job: the job plus the handle the
// worker uses to Ack, Nack, or Extend it before Deadline.
type Lease struct {
	Job      Job
	ID       uint64
	Attempt  int // 1-based delivery attempt
	Deadline time.Time
}

// DeadJob is a job that exhausted its delivery attempts.
type DeadJob struct {
	Job      Job    `json:"job"`
	Attempts int    `json:"attempts"`
	Reason   string `json:"reason"` // last nack reason, or "lease expired"
}

// Stats is a point-in-time view of where every pushed job stands:
// Pending + Leased + Done + DeadLettered == jobs pushed (once settled).
type Stats struct {
	Pending      int // waiting for delivery
	Leased       int // delivered, not yet acked/nacked/expired
	Done         int // acked
	DeadLettered int // attempts exhausted
	Redelivered  int // total redeliveries performed (expiry or nack)
}

// pendingJob is a job waiting for delivery.
type pendingJob struct {
	job     Job
	attempt int // completed delivery attempts
}

// activeLease is the server-side record of one outstanding lease.
type activeLease struct {
	job      Job
	attempt  int
	deadline time.Time
	since    time.Time
}

// Queue is a FIFO job queue with leased at-least-once delivery and a result
// channel, safe for concurrent use.
type Queue struct {
	opts Options

	mu          sync.Mutex
	jobs        []pendingJob
	leases      map[uint64]*activeLease
	dead        []DeadJob
	results     []JobResult
	closed      bool
	nextLease   uint64
	acked       int
	redelivered int

	reapOnce sync.Once
	stop     chan struct{}

	depth *obs.Gauge // per-queue depth gauge
	last  int64      // last depth contributed to the aggregate gauge
}

// New returns an empty queue with default delivery options.
func New() *Queue { return NewWithOptions(Options{}) }

// NewWithOptions returns an empty queue with the given delivery options.
func NewWithOptions(o Options) *Queue {
	o = o.withDefaults()
	return &Queue{
		opts:   o,
		leases: make(map[uint64]*activeLease),
		stop:   make(chan struct{}),
		depth:  obs.G("queue." + o.Name + ".depth"),
	}
}

// setDepthLocked publishes the pending depth to the per-queue gauge and the
// delta to the process-wide aggregate.
func (q *Queue) setDepthLocked() {
	n := int64(len(q.jobs))
	q.depth.Set(n)
	mDepth.Add(n - q.last)
	q.last = n
}

// Push enqueues a job.
func (q *Queue) Push(j Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	q.jobs = append(q.jobs, pendingJob{job: j})
	mPush.Inc()
	q.setDepthLocked()
	return nil
}

// startReaper launches the lease reaper on first use. It wakes a few times
// per lease period, requeues expired leases (oldest lease ID first, so
// redelivery order is deterministic), and exits when the queue closes.
func (q *Queue) startReaper() {
	q.reapOnce.Do(func() {
		ivl := q.opts.LeaseTimeout / 4
		if ivl < time.Millisecond {
			ivl = time.Millisecond
		}
		if ivl > time.Second {
			ivl = time.Second
		}
		go func() {
			t := time.NewTicker(ivl)
			defer t.Stop()
			for {
				select {
				case <-q.stop:
					return
				case <-t.C:
					q.reapExpired(time.Now())
				}
			}
		}()
	})
}

// reapExpired requeues (or dead-letters) every lease past its deadline.
func (q *Queue) reapExpired(now time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var expired []uint64
	for id, l := range q.leases {
		if !now.Before(l.deadline) {
			expired = append(expired, id)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
	for _, id := range expired {
		l := q.leases[id]
		delete(q.leases, id)
		obs.EmitTrace(l.job.Trace, obs.EvJobExpired, obs.A("queue", q.opts.Name),
			obs.A("job", l.job.ID), obs.A("attempt", l.attempt))
		q.requeueLocked(l, "lease expired")
	}
}

// requeueLocked returns a failed delivery to the pending list, or
// dead-letters the job if its attempts are exhausted.
func (q *Queue) requeueLocked(l *activeLease, reason string) {
	if l.attempt >= q.opts.MaxAttempts {
		q.dead = append(q.dead, DeadJob{Job: l.job, Attempts: l.attempt, Reason: reason})
		mDead.Inc()
		obs.EmitTrace(l.job.Trace, obs.EvJobDeadLetter, obs.A("queue", q.opts.Name),
			obs.A("job", l.job.ID), obs.A("attempts", l.attempt), obs.A("reason", reason))
		return
	}
	q.jobs = append(q.jobs, pendingJob{job: l.job, attempt: l.attempt})
	q.redelivered++
	mRedeliver.Inc()
	q.setDepthLocked()
}

// leaseLocked grants a lease on the head job.
func (q *Queue) leaseLocked() Lease {
	p := q.jobs[0]
	q.jobs = q.jobs[1:]
	q.nextLease++
	now := time.Now()
	l := &activeLease{
		job:      p.job,
		attempt:  p.attempt + 1,
		deadline: now.Add(q.opts.LeaseTimeout),
		since:    now,
	}
	q.leases[q.nextLease] = l
	mLease.Inc()
	obs.EmitTrace(p.job.Trace, obs.EvJobLeased, obs.A("queue", q.opts.Name),
		obs.A("job", p.job.ID), obs.A("attempt", l.attempt))
	q.setDepthLocked()
	return Lease{Job: p.job, ID: q.nextLease, Attempt: l.attempt, Deadline: l.deadline}
}

// TryLease is LeaseN(1) for one job, with LeaseN's errors.
func (q *Queue) TryLease() (Lease, error) {
	ls, err := q.LeaseN(1)
	if err != nil {
		return Lease{}, err
	}
	return ls[0], nil
}

// LeaseN grants leases on up to n pending jobs (at least one) without
// blocking — a worker's whole turn. It answers ErrEmpty when nothing is
// pending (jobs may still be outstanding under other workers' leases) and
// ErrClosed on a closed queue.
func (q *Queue) LeaseN(n int) ([]Lease, error) {
	return q.leaseN(n, func(Job) bool { return true })
}

// leaseN is LeaseN granting the jobs after the head only while take
// accepts them; the server's take encodes each job into the response
// frame. The head job is granted whatever take answers (and nothing after
// it when take refuses it), so a job that cannot travel is nacked out of
// the way rather than blocking the queue.
func (q *Queue) leaseN(n int, take func(Job) bool) ([]Lease, error) {
	q.startReaper()
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.jobs) == 0 {
		if q.closed {
			return nil, ErrClosed
		}
		return nil, ErrEmpty
	}
	n = max(n, 1)
	out := make([]Lease, 0, min(n, len(q.jobs)))
	for len(out) < n && len(q.jobs) > 0 {
		ok := take(q.jobs[0].job)
		if !ok && len(out) > 0 {
			break
		}
		out = append(out, q.leaseLocked())
		if !ok {
			break
		}
	}
	return out, nil
}

// Settlement is one item of a Settle: Result, when set, is recorded, and
// Lease, when nonzero, is released as done.
type Settlement struct {
	Lease  uint64
	Result *JobResult
}

// Settle records each item's result and releases its lease, the whole
// batch in one critical section, and returns one error per item (nil:
// settled). An item whose lease is no longer outstanding still has its
// result recorded and gets ErrUnknownLease, which is benign: the job was
// redelivered and the coordinator's fold deduplicates by job ID. On a
// closed queue an item's result is refused with ErrClosed and its lease
// left held, for the worker to nack.
func (q *Queue) Settle(items []Settlement) []error {
	errs := make([]error, len(items))
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, it := range items {
		if it.Result != nil {
			if q.closed {
				errs[i] = ErrClosed
				continue
			}
			q.results = append(q.results, *it.Result)
			mReport.Inc()
		}
		if it.Lease != 0 {
			errs[i] = q.ackLocked(it.Lease)
		}
	}
	return errs
}

// Ack settles a lease: the job is done and will not be redelivered.
func (q *Queue) Ack(id uint64) error { return q.Settle([]Settlement{{Lease: id}})[0] }

func (q *Queue) ackLocked(id uint64) error {
	l, ok := q.leases[id]
	if !ok {
		return ErrUnknownLease
	}
	delete(q.leases, id)
	q.acked++
	mAck.Inc()
	mLeaseAge.ObserveDuration(time.Since(l.since))
	obs.EmitTrace(l.job.Trace, obs.EvJobAcked, obs.A("queue", q.opts.Name),
		obs.A("job", l.job.ID), obs.A("attempt", l.attempt))
	return nil
}

// Nack hands a lease back for redelivery (or dead-lettering once attempts
// are exhausted); reason is recorded on the dead-letter entry.
func (q *Queue) Nack(id uint64, reason string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	l, ok := q.leases[id]
	if !ok {
		return ErrUnknownLease
	}
	delete(q.leases, id)
	mNack.Inc()
	if reason == "" {
		reason = "nacked"
	}
	obs.EmitTrace(l.job.Trace, obs.EvJobNacked, obs.A("queue", q.opts.Name),
		obs.A("job", l.job.ID), obs.A("attempt", l.attempt), obs.A("reason", reason))
	q.requeueLocked(l, reason)
	return nil
}

// Extend pushes a lease's deadline out by d (the queue's LeaseTimeout when
// d <= 0) and returns the new deadline. Workers running jobs longer than
// the lease period call this to keep the reaper away.
func (q *Queue) Extend(id uint64, d time.Duration) (time.Time, error) {
	if d <= 0 {
		d = q.opts.LeaseTimeout
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	l, ok := q.leases[id]
	if !ok {
		return time.Time{}, ErrUnknownLease
	}
	l.deadline = time.Now().Add(d)
	return l.deadline, nil
}

func (q *Queue) isClosed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// Report records a worker's result.
func (q *Queue) Report(r JobResult) error { return q.Settle([]Settlement{{Result: &r}})[0] }

// Results drains and returns all recorded results. At-least-once delivery
// means the slice can hold several results for one redelivered job;
// coordinators deduplicate by JobID (see core.AggregateResults).
func (q *Queue) Results() []JobResult {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := q.results
	q.results = nil
	return out
}

// DeadLetters returns a copy of the dead-letter list: jobs that exhausted
// their delivery attempts, with the reason for the final failure. A job's
// delivery history is on its trace, as the flight recorder's job.* events.
func (q *Queue) DeadLetters() []DeadJob {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]DeadJob(nil), q.dead...)
}

// Stats reports where every pushed job currently stands.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return Stats{
		Pending:      len(q.jobs),
		Leased:       len(q.leases),
		Done:         q.acked,
		DeadLettered: len(q.dead),
		Redelivered:  q.redelivered,
	}
}

// Close stops the reaper; subsequent Pushes and Reports fail, and TryLease
// answers ErrClosed once nothing is pending. Outstanding leases can still
// be acked or nacked while workers drain.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	close(q.stop)
}

// EncodeJob serializes a job for the wire.
func EncodeJob(j Job) ([]byte, error) { return json.Marshal(j) }

// DecodeJob parses a serialized job. Inline programs are validated;
// by-reference jobs must carry a corpus digest and in-range pair indices
// (full bounds checking happens at Resolve time, against the corpus).
func DecodeJob(data []byte) (Job, error) {
	var j Job
	if err := json.Unmarshal(data, &j); err != nil {
		return Job{}, err
	}
	if !j.Inline() {
		if j.Corpus == "" {
			return Job{}, errors.New("queue: job carries neither inline programs nor a corpus digest")
		}
		if j.Pair.Writer < 0 || j.Pair.Reader < 0 {
			return Job{}, errors.New("queue: by-reference job with negative pair index")
		}
		return j, nil
	}
	if err := j.Writer.Validate(); err != nil {
		return Job{}, err
	}
	if err := j.Reader.Validate(); err != nil {
		return Job{}, err
	}
	return j, nil
}
