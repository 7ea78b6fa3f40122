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

// entry is an event as the ring keeps it: the emitter's attrs as given,
// in a few inline slots when they fit. The Attrs map is built only when
// an event is copied out (Since, SinceTrace, the JSONL sink), so emitting
// costs one allocation plus the boxing of the values.
type entry struct {
	seq    uint64
	t      time.Time
	kind   string
	trace  string
	inline [4]Attr
	attrs  []Attr // inline[:n], or a copy when there are more
}

// event is the Event e records, Attrs map and all.
func (e *entry) event() Event {
	ev := Event{Seq: e.seq, T: e.t, Kind: e.kind, Trace: e.trace}
	if len(e.attrs) > 0 {
		ev.Attrs = make(map[string]any, len(e.attrs))
		for _, a := range e.attrs {
			ev.Attrs[a.Key] = a.Value
		}
	}
	return ev
}

// EventLog is a bounded, race-safe event ring. Writers are lock-free (one
// atomic sequence claim plus one atomic slot store) unless a JSONL sink is
// attached, in which case emission serializes on the sink lock so the JSONL
// stream is strictly ordered by sequence number. Readers never block
// writers.
type EventLog struct {
	seq  atomic.Uint64
	ring []atomic.Pointer[entry]
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
	return &EventLog{ring: make([]atomic.Pointer[entry], n), mask: uint64(n - 1)}
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
	e := &entry{t: time.Now(), kind: kind, trace: trace}
	if len(attrs) <= len(e.inline) {
		e.attrs = e.inline[:copy(e.inline[:], attrs)]
	} else {
		e.attrs = append([]Attr(nil), attrs...)
	}
	if l.sinkOn.Load() {
		// Sink attached: claim the sequence under the sink lock so the JSONL
		// stream is strictly ordered.
		l.mu.Lock()
		e.seq = l.seq.Add(1)
		l.ring[e.seq&l.mask].Store(e)
		if l.enc != nil {
			ev := e.event()
			_ = l.enc.Encode(&ev)
		}
		l.mu.Unlock()
		return e.seq
	}
	e.seq = l.seq.Add(1)
	l.ring[e.seq&l.mask].Store(e)
	return e.seq
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
	return l.sinceWhere(n, func(e *entry) bool { return e.trace == trace })
}

func (l *EventLog) sinceWhere(n uint64, keep func(*entry) bool) []Event {
	if l == nil {
		return nil
	}
	out := make([]Event, 0, len(l.ring))
	for i := range l.ring {
		if e := l.ring[i].Load(); e != nil && e.seq > n && (keep == nil || keep(e)) {
			out = append(out, e.event())
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
// event and distributed job of the run is stitched to.
type Campaign struct {
	Trace     string    `json:"trace"`
	Name      string    `json:"name"`
	StartedAt time.Time `json:"started_at"`
}

// campaignPtr is the process default campaign (EnsureCampaign), the trace
// Emit falls back to.
var campaignPtr atomic.Pointer[Campaign]

// StartCampaign mints a new campaign with a fresh trace ID and emits its
// campaign.start. It never joins or replaces the process default: each
// call is one tenant of a multi-tenant control plane, and the caller
// stitches that tenant's events to the returned trace itself (EmitTrace,
// SinceTrace).
func StartCampaign(name string) Campaign {
	c := Campaign{Trace: NewTraceID(), Name: name, StartedAt: time.Now()}
	EmitTrace(c.Trace, EvCampaignStart, A("campaign", name), A("trace", c.Trace))
	return c
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

// EnsureCampaign returns the process default campaign, starting one (and
// emitting campaign.start) if none exists yet. The first caller in a
// process wins; later callers join it.
func EnsureCampaign(name string) Campaign {
	if c := campaignPtr.Load(); c != nil {
		return *c
	}
	c := &Campaign{Trace: NewTraceID(), Name: name, StartedAt: time.Now()}
	if !campaignPtr.CompareAndSwap(nil, c) {
		return *campaignPtr.Load()
	}
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
