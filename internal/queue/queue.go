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
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"snowboard/internal/corpus"
	"snowboard/internal/obs"
	"snowboard/internal/pmc"
	"snowboard/internal/wire"
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

// Job is one unit of exploration work: a concurrent test with everything
// its outcome depends on — both programs, its hints, the kernel version,
// the seed, the trial budget and the name of the PMCs it may adopt — so
// any worker that can reach the queue explores it exactly as the
// coordinator would, with no store or flag of its own.
type Job struct {
	ID int `json:"id"`
	// Seed is the exploration seed the coordinator drew for this test —
	// the one local execution would have used — so a result depends on
	// neither the worker nor the delivery attempt.
	Seed int64 `json:"seed"`
	// Trials is the campaign's trial budget per test, set by the
	// coordinator: an outcome is a function of (test, seed, trials,
	// version), so no executor explores with a budget of its own.
	Trials int `json:"trials,omitempty"`
	// Version is the simulated kernel the campaign tests (kernel.Version),
	// so no executor explores on a kernel of its own choosing.
	Version string       `json:"version,omitempty"`
	Writer  *corpus.Prog `json:"writer,omitempty"`
	Reader  *corpus.Prog `json:"reader,omitempty"`
	Hint    *pmc.PMC     `json:"hint,omitempty"`
	Pair    pmc.Pair     `json:"pair"`
	// Extra is the test's composed hints (sched.ConcurrentTest.Extra).
	Extra []pmc.PMC `json:"extra,omitempty"`
	// Adopt names what incidental adoption (Algorithm 2 lines 26–27) may
	// pick from while exploring the test: the digest of its batch's
	// adoption list (AdoptList.Digest), empty when the batch leaves nothing
	// adoptable. The list itself is pushed once per batch (PushList) and
	// leased with the job (Lease.Adopt); over TCP it travels once per
	// worker, not once per job.
	Adopt string `json:"adopt,omitempty"`
	// Trace stitches the job to its originating campaign: workers tag the
	// job's events with it, so a distributed run's timeline reads
	// end-to-end. Optional: a job without one emits untagged events.
	Trace string `json:"trace,omitempty"`
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

// Lease is one granted delivery of a job: the job, the adoption list it
// names, and the handle the worker uses to Ack, Nack, or Extend it before
// Deadline.
type Lease struct {
	Job      Job
	Adopt    *AdoptList // the list Job.Adopt names; nil when it names none
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

// pendingJob is a job waiting for delivery: its index in Queue.jobs.
type pendingJob struct {
	idx     int
	attempt int // completed delivery attempts
}

// activeLease is the server-side record of one outstanding lease: the
// job's index in Queue.jobs, never a copy of the job.
type activeLease struct {
	idx      int
	attempt  int
	deadline time.Time
	since    time.Time
}

// Queue is a FIFO job queue with leased at-least-once delivery and a result
// channel, safe for concurrent use.
type Queue struct {
	opts Options
	name any // opts.Name, boxed once for every job event's "queue" attr

	mu      sync.Mutex
	changed sync.Cond // broadcast on every Stats change and on Close: Await's wake-up
	// jobs holds every job pushed since the queue last stood idle (nothing
	// pending or leased), by index; pending[head:] is the delivery FIFO and
	// leases the outstanding deliveries, both by index into jobs.
	jobs    []Job
	pending []pendingJob
	head    int
	leases  map[uint64]activeLease
	// lists are the adoption lists pushed jobs may name (PushList).
	lists map[string]*AdoptList
	dead  []DeadJob
	// results are recorded since the last Results call, their outcomes
	// copied into arena; lent and lentArena are what that call returned,
	// reused by the next.
	results     []JobResult
	arena       []byte
	lent        []JobResult
	lentArena   []byte
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
	q := &Queue{
		opts:   o,
		name:   o.Name,
		leases: make(map[uint64]activeLease),
		lists:  make(map[string]*AdoptList),
		stop:   make(chan struct{}),
		depth:  obs.G("queue." + o.Name + ".depth"),
	}
	q.changed.L = &q.mu
	return q
}

// pendingLocked is how many jobs await delivery.
func (q *Queue) pendingLocked() int { return len(q.pending) - q.head }

// idleLocked reports whether no job is pending or leased: nothing refers
// to jobs or lists any more.
func (q *Queue) idleLocked() bool { return q.pendingLocked() == 0 && len(q.leases) == 0 }

// setDepthLocked publishes the pending depth to the per-queue gauge and the
// delta to the process-wide aggregate, and wakes Await: a Stats change.
func (q *Queue) setDepthLocked() {
	n := int64(q.pendingLocked())
	q.depth.Set(n)
	mDepth.Add(n - q.last)
	q.last = n
	q.changed.Broadcast()
}

// jobEvent emits one of a job's delivery events on its trace: the queue,
// the job and attrs.
func (q *Queue) jobEvent(kind string, j *Job, attrs ...obs.Attr) {
	var all [4]obs.Attr
	all[0], all[1] = obs.Attr{Key: "queue", Value: q.name}, obs.A("job", j.ID)
	n := 2 + copy(all[2:], attrs)
	obs.EmitTrace(j.Trace, kind, all[:n]...)
}

// PushList makes an adoption list available to the jobs pushed after it
// (Job.Adopt names it by digest). A queue standing idle forgets the lists
// pushed before, as it does their jobs.
func (q *Queue) PushList(l *AdoptList) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if q.idleLocked() {
		clear(q.lists)
	}
	q.lists[l.Digest] = l
	return nil
}

// Push enqueues jobs, in order, under one lock: a batch grows the job
// store and the delivery FIFO once. A batch with a job naming an adoption
// list the queue was not given (PushList) is refused whole. An accepted
// batch pushed on an idle queue becomes its job store, uncopied: the
// caller hands jobs' backing array over and must not touch it again.
func (q *Queue) Push(jobs ...Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	for i := range jobs {
		if a := jobs[i].Adopt; a != "" && q.lists[a] == nil {
			return fmt.Errorf("queue: job %d names adoption list %q, which was never pushed", jobs[i].ID, a)
		}
	}
	if q.idleLocked() {
		q.jobs = jobs[:0] // the append below then copies nothing
	}
	q.pending = slices.Grow(q.pending, len(jobs))
	for i := range jobs {
		q.pending = append(q.pending, pendingJob{idx: len(q.jobs) + i})
	}
	q.jobs = append(q.jobs, jobs...)
	mPush.Add(int64(len(jobs)))
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
		q.jobEvent(obs.EvJobExpired, &q.jobs[l.idx], obs.A("attempt", l.attempt))
		q.requeueLocked(l, "lease expired")
	}
}

// requeueLocked returns a failed delivery to the pending list, or
// dead-letters the job if its attempts are exhausted.
func (q *Queue) requeueLocked(l activeLease, reason string) {
	if l.attempt >= q.opts.MaxAttempts {
		j := &q.jobs[l.idx]
		q.dead = append(q.dead, DeadJob{Job: *j, Attempts: l.attempt, Reason: reason})
		q.changed.Broadcast()
		mDead.Inc()
		q.jobEvent(obs.EvJobDeadLetter, j, obs.A("attempts", l.attempt), obs.A("reason", reason))
		return
	}
	q.pending = append(q.pending, pendingJob{idx: l.idx, attempt: l.attempt})
	q.redelivered++
	mRedeliver.Inc()
	q.setDepthLocked()
}

// leaseLocked grants a lease on the head job.
func (q *Queue) leaseLocked() Lease {
	p := q.pending[q.head]
	if q.head++; q.head == len(q.pending) {
		q.pending, q.head = q.pending[:0], 0
	}
	q.nextLease++
	now := time.Now()
	l := activeLease{
		idx:      p.idx,
		attempt:  p.attempt + 1,
		deadline: now.Add(q.opts.LeaseTimeout),
		since:    now,
	}
	q.leases[q.nextLease] = l
	mLease.Inc()
	j := &q.jobs[p.idx]
	q.jobEvent(obs.EvJobLeased, j, obs.A("attempt", l.attempt))
	q.setDepthLocked()
	return Lease{Job: *j, Adopt: q.lists[j.Adopt], ID: q.nextLease, Attempt: l.attempt, Deadline: l.deadline}
}

// TryLease is LeaseN for one job, with LeaseN's errors.
func (q *Queue) TryLease() (Lease, error) {
	ls, err := q.LeaseN(nil, 1)
	if err != nil {
		return Lease{}, err
	}
	return ls[0], nil
}

// LeaseN grants leases on up to n pending jobs (at least one) without
// blocking — a worker's whole turn — and appends them to dst, storage the
// caller keeps from turn to turn. It answers ErrEmpty when nothing is
// pending (jobs may still be outstanding under other workers' leases) and
// ErrClosed on a closed queue, and appends nothing then.
func (q *Queue) LeaseN(dst []Lease, n int) ([]Lease, error) {
	return q.leaseN(dst, n, func(*Job) bool { return true })
}

// leaseN is LeaseN granting the jobs after the head only while take
// accepts them; the server's take encodes each job into the response
// frame. The head job is granted whatever take answers (and nothing after
// it when take refuses it), so a job that cannot travel is nacked out of
// the way rather than blocking the queue. take runs under the queue's
// lock.
func (q *Queue) leaseN(dst []Lease, n int, take func(*Job) bool) ([]Lease, error) {
	q.startReaper()
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.pendingLocked() == 0 {
		if q.closed {
			return dst, ErrClosed
		}
		return dst, ErrEmpty
	}
	n = max(n, 1)
	dst = slices.Grow(dst, min(n, q.pendingLocked()))
	for granted := 0; granted < n && q.pendingLocked() > 0; granted++ {
		ok := take(&q.jobs[q.pending[q.head].idx])
		if !ok && granted > 0 {
			break
		}
		dst = append(dst, q.leaseLocked())
		if !ok {
			break
		}
	}
	return dst, nil
}

// Settlement is one item of a Settle: Result, when set, is recorded, and
// Lease, when nonzero, is released as done.
type Settlement struct {
	Lease  uint64
	Result *JobResult
}

// Settle records each item's result and releases its lease, the whole
// batch in one critical section, and returns one error per item (nil:
// settled). A result's outcome bytes are copied: the caller may reuse
// them. An item whose lease is no longer outstanding still has its
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
			res := *it.Result
			if len(res.Outcome) > 0 {
				at := len(q.arena)
				q.arena = append(q.arena, res.Outcome...)
				res.Outcome = q.arena[at:len(q.arena):len(q.arena)]
			}
			q.results = append(q.results, res)
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
	q.changed.Broadcast()
	mAck.Inc()
	mLeaseAge.ObserveDuration(time.Since(l.since))
	q.jobEvent(obs.EvJobAcked, &q.jobs[l.idx], obs.A("attempt", l.attempt))
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
	q.jobEvent(obs.EvJobNacked, &q.jobs[l.idx], obs.A("attempt", l.attempt), obs.A("reason", reason))
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
	q.leases[id] = l
	return l.deadline, nil
}

func (q *Queue) isClosed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// Report records a worker's result.
func (q *Queue) Report(r JobResult) error { return q.Settle([]Settlement{{Result: &r}})[0] }

// Results drains and returns the results recorded since the last call.
// At-least-once delivery means the slice can hold several results for one
// redelivered job; coordinators deduplicate by JobID
// (the fold of core's stage-4 batch). The slice and its outcome
// bytes are the queue's, lent until the next Results call reuses them: a
// coordinator folds each drain before the next, so no outcome outlives
// its fold.
func (q *Queue) Results() []JobResult {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := q.results
	q.results, q.lent = q.lent[:0], out
	q.arena, q.lentArena = q.lentArena[:0], q.arena
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
	return q.statsLocked()
}

// Await blocks until Stats differ from st or the queue is closed, and
// returns them. No change brings Stats back to an earlier value (a lease
// given back counts a redelivery or a dead letter): st returns only on close.
func (q *Queue) Await(st Stats) Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.closed && q.statsLocked() == st {
		q.changed.Wait()
	}
	return q.statsLocked()
}

func (q *Queue) statsLocked() Stats {
	return Stats{
		Pending:      q.pendingLocked(),
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
	q.changed.Broadcast()
}

// MaxAdoptBytes is the most a batch's adoption list may take encoded
// (AdoptList.Len): half a lease frame, so a lease answer carrying the list
// (once per worker and batch) still has half the frame for the turn's head
// job, about 1 KB at every spec (a fuzzed program has at most 12 calls).
// NewAdoptList refuses a longer list, so a batch that could not travel is
// refused before anything is pushed. At the ~33 bytes a PMC takes that is
// about 15,000 PMCs; the largest spec CI runs (seed 7, corpus 200) has 701.
const MaxAdoptBytes = maxFrame / 2

// MaxAdopt caps a received adoption list: as many of the smallest PMCs
// (pmc.MinPMCBytes) as MaxAdoptBytes holds, so every list a coordinator
// pushes decodes.
const MaxAdopt = MaxAdoptBytes / pmc.MinPMCBytes

// AdoptList is one batch's adoption list: the PMCs incidental adoption
// (Algorithm 2 lines 26–27) may pick from while exploring any of the
// batch's tests, in canonical order. It is built once per batch — by the
// coordinator that pushes it (NewAdoptList), or by a TCP worker when a
// lease answer first carries it — and shared by every lease of the batch.
type AdoptList struct {
	// Digest names the list in each job of the batch (Job.Adopt): a hash
	// of its binary form.
	Digest string
	PMCs   []pmc.PMC
	set    *pmc.Set
	enc    []byte // the binary form a lease answer carries
}

// ErrBadAdoptList reports a malformed adoption list encoding.
var ErrBadAdoptList = errors.New("queue: malformed adoption list")

// NewAdoptList builds the adoption list of ps, encoding it once for every
// lease answer that will carry it; nil when ps is empty. A list past
// MaxAdoptBytes is refused.
func NewAdoptList(ps []pmc.PMC) (*AdoptList, error) {
	if len(ps) == 0 {
		return nil, nil
	}
	enc := binary.AppendUvarint(nil, uint64(len(ps)))
	for _, p := range ps {
		enc = pmc.AppendPMC(enc, p)
	}
	if len(enc) > MaxAdoptBytes {
		return nil, fmt.Errorf("queue: %d PMCs to adopt take %d bytes, past the %d a lease frame carries",
			len(ps), len(enc), MaxAdoptBytes)
	}
	return newAdoptList(ps, enc), nil
}

func newAdoptList(ps []pmc.PMC, enc []byte) *AdoptList {
	sum := sha256.Sum256(enc)
	return &AdoptList{Digest: hex.EncodeToString(sum[:16]), PMCs: ps, set: pmc.SetOf(ps), enc: enc}
}

// Known is the set the explorer adopts from (sched.Explorer.KnownPMCs),
// built once per list; nil for a nil list.
func (l *AdoptList) Known() *pmc.Set {
	if l == nil {
		return nil
	}
	return l.set
}

// Len is the length of the list's binary form; 0 for a nil list.
func (l *AdoptList) Len() int {
	if l == nil {
		return 0
	}
	return len(l.enc)
}

// decodeAdoptList parses an adoption list's binary form, refusing a count
// past MaxAdopt or past what the bytes hold, before anything is sized by
// it. The list keeps b.
func decodeAdoptList(b []byte) (*AdoptList, error) {
	r := wire.NewReader(b, ErrBadAdoptList)
	n := r.Count(pmc.MinPMCBytes)
	if n > MaxAdopt {
		r.Fail(fmt.Sprintf("%d PMCs, the cap is %d", n, MaxAdopt))
		n = 0
	}
	ps := make([]pmc.PMC, n)
	for i := range ps {
		ps[i] = pmc.ReadPMC(r)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: no PMCs", ErrBadAdoptList)
	}
	return newAdoptList(ps, b), nil
}

// EncodeJob serializes a job for the wire.
func EncodeJob(j Job) ([]byte, error) { return json.Marshal(j) }

// DecodeJob parses a serialized job and validates both of its programs; a
// job without them is refused. Its trial budget and kernel version are the
// worker's to check (core.Worker.Do nacks a job it cannot explore).
func DecodeJob(data []byte) (Job, error) {
	var j Job
	if err := json.Unmarshal(data, &j); err != nil {
		return Job{}, err
	}
	if j.Writer == nil || j.Reader == nil {
		return Job{}, errors.New("queue: job carries no programs")
	}
	if err := j.Writer.Validate(); err != nil {
		return Job{}, err
	}
	if err := j.Reader.Validate(); err != nil {
		return Job{}, err
	}
	return j, nil
}
