package obs

import "time"

// Attr is one key/value attribute of a flight-recorder event.
type Attr struct {
	Key   string
	Value any
}

// A builds an attribute.
func A(key string, value any) Attr { return Attr{Key: key, Value: value} }

// Span times one pipeline stage or per-test execution. It writes no log
// line: what a stage or test did is its stage.done or pmc.tested event,
// and the span only feeds the Default registry histogram
// "<name>.duration_ns". A nil span is safe to End.
type Span struct {
	name  string
	start time.Time
}

// StartSpan begins timing a span.
func StartSpan(name string) *Span { return &Span{name: name, start: time.Now()} }

// End records the span's duration into "<name>.duration_ns" and returns it.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	dur := time.Since(s.start)
	H(s.name + ".duration_ns").Observe(int64(dur))
	return dur
}
