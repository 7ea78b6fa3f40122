package obs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The flight recorder: a typed, race-safe structured event log capturing
// what happened to a campaign over time — stage completions, per-test
// outcomes, coverage growth, queue delivery decisions — at a granularity
// the point-in-time metrics registry cannot express. Events are appended
// to a bounded lock-free ring (old events are overwritten, never blocking
// a producer) and optionally mirrored to a JSONL sink; readers page
// through them with Since, and the introspection server serves them at
// /events?since=N.
//
// Emission sites are per-test / per-stage / per-job, never per-access, so
// the recorder stays within the observability layer's ≤5% overhead budget
// (see BenchmarkEventLogOverhead).

// Well-known event kinds. Attrs carry the specifics; Kind is what
// consumers filter on.
const (
	EvCampaignStart   = "campaign.start"   // a campaign (pipeline or coordinator) began
	EvCampaignDone    = "campaign.done"    // the campaign finished
	EvStageDone       = "stage.done"       // one pipeline stage completed (attrs: stage, cache, dur_ms, ...)
	EvPMCIdentified   = "pmc.identified"   // Algorithm 1 finished (attrs: keys, combinations)
	EvPMCIncremental  = "pmc.incremental"  // one profile batch ingested incrementally (attrs: batch, profiles, delta, keys)
	EvPMCTested       = "pmc.tested"       // one concurrent test explored (attrs: hinted, exercised, trials)
	EvCoverNew        = "cover.new"        // coverage grew (attrs: edges, pairs, or segments delta)
	EvFeedbackRound   = "feedback.round"   // one feedback round completed (attrs: round, tests, segments, issues)
	EvRaceFound       = "race.found"       // a crash-level oracle finding surfaced
	EvTriageMinimized = "triage.minimized" // a finding was minimized into an SBRB bundle (attrs: bug, signature, bundle, ...)
	EvExecCrash       = "exec.crash"       // a VM execution crashed the simulated kernel
	EvJobLeased       = "job.leased"       // queue: job delivered under a lease
	EvJobAcked        = "job.acked"        // queue: lease settled successfully
	EvJobNacked       = "job.nacked"       // queue: lease handed back by a worker
	EvJobExpired      = "job.expired"      // queue: lease reaped after its deadline
	EvJobDeadLetter   = "job.deadlettered" // queue: delivery attempts exhausted
)

// Event is one flight-recorder entry. Seq is a process-wide monotone
// sequence number (1-based); Trace stitches the event to a campaign (or a
// distributed job's originating campaign).
type Event struct {
	Seq   uint64         `json:"seq"`
	T     time.Time      `json:"t"`
	Kind  string         `json:"kind"`
	Trace string         `json:"trace,omitempty"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// DefaultEventRing is the bounded capacity of the process-wide event log.
const DefaultEventRing = 4096

// EventLog is a bounded, race-safe event ring. Writers are lock-free (one
// atomic sequence claim plus one atomic slot store) unless a JSONL sink is
// attached, in which case emission serializes on the sink lock so the JSONL
// stream is strictly ordered by sequence number. Readers never block
// writers.
type EventLog struct {
	seq  atomic.Uint64
	ring []atomic.Pointer[Event]
	mask uint64

	sinkOn atomic.Bool
	mu     sync.Mutex
	enc    *json.Encoder
}

// NewEventLog returns an event log holding the last size events (rounded up
// to a power of two; size <= 0 uses DefaultEventRing).
func NewEventLog(size int) *EventLog {
	if size <= 0 {
		size = DefaultEventRing
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &EventLog{ring: make([]atomic.Pointer[Event], n), mask: uint64(n - 1)}
}

// Events is the process-wide flight recorder every instrumented package
// emits into and the introspection server serves at /events.
var Events = NewEventLog(DefaultEventRing)

// SetSink attaches (nil detaches) a JSONL mirror: every emitted event is
// appended to w as one JSON line, in sequence order. The writer is
// serialized by the log's own lock.
func (l *EventLog) SetSink(w io.Writer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if w == nil {
		l.enc = nil
		l.sinkOn.Store(false)
		return
	}
	l.enc = json.NewEncoder(w)
	l.sinkOn.Store(true)
}

// Emit appends an event with the current campaign's trace ID (empty when no
// campaign was started). Returns the assigned sequence number, 0 when the
// observability layer is disabled.
func (l *EventLog) Emit(kind string, attrs ...Attr) uint64 {
	return l.EmitTrace(CurrentTrace(), kind, attrs...)
}

// EmitTrace appends an event under an explicit trace ID (a distributed
// worker stitching a job to its originating campaign). An empty trace falls
// back to the current campaign's.
func (l *EventLog) EmitTrace(trace, kind string, attrs ...Attr) uint64 {
	if l == nil {
		return 0
	}
	if trace == "" {
		trace = CurrentTrace()
	}
	ev := &Event{T: time.Now(), Kind: kind, Trace: trace}
	if len(attrs) > 0 {
		ev.Attrs = make(map[string]any, len(attrs))
		for _, a := range attrs {
			ev.Attrs[a.Key] = a.Value
		}
	}
	if l.sinkOn.Load() {
		// Sink attached: claim the sequence under the sink lock so the JSONL
		// stream is strictly ordered.
		l.mu.Lock()
		ev.Seq = l.seq.Add(1)
		l.ring[ev.Seq&l.mask].Store(ev)
		if l.enc != nil {
			_ = l.enc.Encode(ev)
		}
		l.mu.Unlock()
		return ev.Seq
	}
	ev.Seq = l.seq.Add(1)
	l.ring[ev.Seq&l.mask].Store(ev)
	return ev.Seq
}

// Seq returns the last assigned sequence number (0 before any emission).
func (l *EventLog) Seq() uint64 {
	if l == nil {
		return 0
	}
	return l.seq.Load()
}

// Since returns the retained events with sequence numbers strictly greater
// than n, in ascending sequence order. Events older than the ring capacity
// are gone; the caller pages with the last returned Seq.
func (l *EventLog) Since(n uint64) []Event {
	return l.sinceWhere(n, nil)
}

// SinceTrace is Since restricted to one campaign's events: only entries
// whose Trace matches are returned. Sequence numbers stay process-wide, so
// a per-campaign reader pages with the same cursor discipline as Since.
func (l *EventLog) SinceTrace(trace string, n uint64) []Event {
	return l.sinceWhere(n, func(ev *Event) bool { return ev.Trace == trace })
}

func (l *EventLog) sinceWhere(n uint64, keep func(*Event) bool) []Event {
	if l == nil {
		return nil
	}
	out := make([]Event, 0, len(l.ring))
	for i := range l.ring {
		if ev := l.ring[i].Load(); ev != nil && ev.Seq > n && (keep == nil || keep(ev)) {
			out = append(out, *ev)
		}
	}
	// Total order: Seq values are unique by construction (each emission
	// takes seq.Add(1) on the process-wide counter), so no two retained
	// events compare equal and the unstable sort cannot permute ties.
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Emit appends an event to the process-wide flight recorder.
func Emit(kind string, attrs ...Attr) uint64 { return Events.Emit(kind, attrs...) }

// EmitTrace appends an event under an explicit trace ID.
func EmitTrace(trace, kind string, attrs ...Attr) uint64 {
	return Events.EmitTrace(trace, kind, attrs...)
}

// Campaign identifies one logical testing campaign: the trace ID every
// event, span, and distributed job of the run is stitched to.
type Campaign struct {
	Trace     string    `json:"trace"`
	Name      string    `json:"name"`
	StartedAt time.Time `json:"started_at"`
}

var campaignPtr atomic.Pointer[Campaign]

// The campaign registry: every campaign started in this process, in start
// order. One process used to mean one campaign (the campaignPtr
// singleton); a multi-tenant control plane runs many at once, each with
// its own trace, and this registry is what lets readers enumerate them
// and scope the shared flight recorder per campaign (SinceTrace).
var (
	campaignsMu sync.Mutex
	campaignSet []Campaign
)

func registerCampaign(c Campaign) {
	campaignsMu.Lock()
	campaignSet = append(campaignSet, c)
	campaignsMu.Unlock()
}

// StartCampaign starts — and registers — a new campaign with a fresh
// trace ID, regardless of whether one is already running. Unlike
// EnsureCampaign it never joins an existing campaign: each call is a new
// tenant. The first campaign started in the process also becomes the
// default for Emit's trace stitching.
func StartCampaign(name string) Campaign {
	c := Campaign{Trace: NewTraceID(), Name: name, StartedAt: time.Now()}
	registerCampaign(c)
	campaignPtr.CompareAndSwap(nil, &c)
	EmitTrace(c.Trace, EvCampaignStart, A("campaign", name), A("trace", c.Trace))
	return c
}

// Campaigns returns every campaign started in this process, in start
// order.
func Campaigns() []Campaign {
	campaignsMu.Lock()
	defer campaignsMu.Unlock()
	return append([]Campaign(nil), campaignSet...)
}

// CampaignByTrace resolves a registered campaign by its trace ID.
func CampaignByTrace(trace string) (Campaign, bool) {
	campaignsMu.Lock()
	defer campaignsMu.Unlock()
	for _, c := range campaignSet {
		if c.Trace == trace {
			return c, true
		}
	}
	return Campaign{}, false
}

// NewTraceID returns a fresh 16-hex-character trace ID. Trace IDs are
// process-random, never derived from the deterministic seed: they identify
// a *run*, and deliberately stay out of reports so reports remain
// bit-identical across re-runs.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("%016x", uint64(time.Now().UnixNano()))
	}
	return hex.EncodeToString(b[:])
}

// EnsureCampaign returns the current campaign, starting one (and emitting
// campaign.start) if none exists yet. The first caller in a process wins;
// later pipelines in the same process join the existing campaign.
func EnsureCampaign(name string) Campaign {
	if c := campaignPtr.Load(); c != nil {
		return *c
	}
	c := &Campaign{Trace: NewTraceID(), Name: name, StartedAt: time.Now()}
	if !campaignPtr.CompareAndSwap(nil, c) {
		return *campaignPtr.Load()
	}
	registerCampaign(*c)
	Emit(EvCampaignStart, A("campaign", name), A("trace", c.Trace))
	return *c
}

// CurrentCampaign returns the current campaign, or nil before
// EnsureCampaign.
func CurrentCampaign() *Campaign {
	return campaignPtr.Load()
}

// CurrentTrace returns the current campaign's trace ID ("" before
// EnsureCampaign).
func CurrentTrace() string {
	if c := campaignPtr.Load(); c != nil {
		return c.Trace
	}
	return ""
}
