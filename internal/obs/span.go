package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Attr is one key/value attribute attached to a span event.
type Attr struct {
	Key   string
	Value any
}

// A builds an attribute.
func A(key string, value any) Attr { return Attr{Key: key, Value: value} }

// Tracer records begin/end spans for pipeline stages and per-test
// executions. Every ended span feeds the registry histogram
// "<name>.duration_ns"; when a sink is attached, it also appends one JSONL
// event per span. A nil sink tracer is cheap: one time.Now per edge and one
// histogram observation, no encoding.
type Tracer struct {
	reg *Registry

	mu  sync.Mutex
	enc *json.Encoder
}

// NewTracer returns a tracer feeding reg (Default when nil), writing JSONL
// events to w (nil discards events).
func NewTracer(w io.Writer, reg *Registry) *Tracer {
	if reg == nil {
		reg = Default
	}
	t := &Tracer{reg: reg}
	if w != nil {
		t.enc = json.NewEncoder(w)
	}
	return t
}

// defaultTracer backs the package-level StartSpan; its sink is set with
// SetTraceSink.
var defaultTracer = NewTracer(nil, nil)

// SetTraceSink attaches (or, with nil, detaches) the JSONL event sink of
// the default tracer. The writer is serialized by the tracer's own lock.
func SetTraceSink(w io.Writer) {
	defaultTracer.mu.Lock()
	defer defaultTracer.mu.Unlock()
	if w == nil {
		defaultTracer.enc = nil
	} else {
		defaultTracer.enc = json.NewEncoder(w)
	}
}

// Span is one in-flight timed region. A nil span is safe to End.
type Span struct {
	tr    *Tracer
	name  string
	start time.Time
	attrs []Attr
}

// StartSpan begins a span on the default tracer.
func StartSpan(name string, attrs ...Attr) *Span { return defaultTracer.Start(name, attrs...) }

// Start begins a span.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	return &Span{tr: t, name: name, start: time.Now(), attrs: attrs}
}

// spanEvent is the JSONL wire form of a completed span.
type spanEvent struct {
	Event string         `json:"ev"`
	Name  string         `json:"name"`
	Start string         `json:"start"`
	DurNS int64          `json:"dur_ns"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// End completes the span, recording its duration into the registry
// histogram "<name>.duration_ns" and emitting a JSONL event when a sink is
// attached. Extra attributes (outcomes known only at the end) are merged
// with the start attributes. Returns the measured duration.
func (s *Span) End(extra ...Attr) time.Duration {
	if s == nil {
		return 0
	}
	dur := time.Since(s.start)
	s.tr.reg.Histogram(s.name + ".duration_ns").Observe(int64(dur))
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.tr.enc == nil {
		return dur
	}
	ev := spanEvent{
		Event: "span",
		Name:  s.name,
		Start: s.start.Format(time.RFC3339Nano),
		DurNS: int64(dur),
	}
	if len(s.attrs)+len(extra) > 0 {
		ev.Attrs = make(map[string]any, len(s.attrs)+len(extra))
		for _, a := range s.attrs {
			ev.Attrs[a.Key] = a.Value
		}
		for _, a := range extra {
			ev.Attrs[a.Key] = a.Value
		}
	}
	_ = s.tr.enc.Encode(ev)
	return dur
}
