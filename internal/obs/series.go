package obs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// The coverage time-series: periodic snapshots of the campaign's progress
// counters, retained as a ring of samples so exec/min, new-pairs/min, and
// plateaus are computable over any window — the signal a feedback-driven
// fuzzing loop selects on. The series is persisted through internal/store
// as an SBTS artifact keyed by (version, seed), so a killed-and-resumed
// campaign's trajectory is one continuous, post-hoc analyzable curve.

// Sample is one point of the campaign time-series: the progress counters
// that matter for rate and plateau analysis, frozen at At (unix
// nanoseconds).
type Sample struct {
	At            int64 `json:"at"` // unix ns
	FuzzExecs     int64 `json:"fuzz_execs"`
	CorpusSize    int64 `json:"corpus_size"`
	Edges         int64 `json:"edges"`
	ProfiledTests int64 `json:"profiled_tests"`
	PMCs          int64 `json:"pmcs"`
	TestsExecuted int64 `json:"tests_executed"`
	TrialsRun     int64 `json:"trials_run"`
	CoverPairs    int64 `json:"cover_pairs"`
	CoverSegments int64 `json:"cover_segments"`
	Issues        int64 `json:"issues"`
	DeadLetters   int64 `json:"dead_letters"`
}

// sampleFields enumerates a sample's non-time fields in codec order.
// CoverSegments sits last so a version-1 payload is a strict prefix.
func (s *Sample) fields() [11]*int64 {
	return [11]*int64{
		&s.FuzzExecs, &s.CorpusSize, &s.Edges, &s.ProfiledTests, &s.PMCs,
		&s.TestsExecuted, &s.TrialsRun, &s.CoverPairs, &s.Issues, &s.DeadLetters,
		&s.CoverSegments,
	}
}

// SampleFrom derives a sample from a registry snapshot.
func SampleFrom(s Snapshot) Sample {
	return Sample{
		At:            s.TakenAt.UnixNano(),
		FuzzExecs:     s.Counter(MFuzzExecs),
		CorpusSize:    s.Gauge(MFuzzCorpus),
		Edges:         s.Gauge(MFuzzEdges),
		ProfiledTests: s.Counter(MProfileTests),
		PMCs:          s.Gauge(MPMCIdentified),
		TestsExecuted: s.Counter(MExecTests),
		TrialsRun:     s.Counter(MSchedTrials),
		CoverPairs:    s.Gauge(MCoverPairs),
		CoverSegments: s.Gauge(MCoverSegments),
		Issues:        s.Gauge(MIssuesFound),
		DeadLetters:   s.Counter(MQueueDeadLetter),
	}
}

// RestoreCounters raises the live progress metrics to at least the values
// of a previously persisted sample, so a resumed campaign's samples
// continue the trajectory where the killed run left off instead of
// re-climbing from zero (cache-hit stages do no new work, so without the
// restore every resumed sample would regress to zero and wreck the
// series' rates). Metrics that have already passed the sample — a stage
// that re-ran before the store was attached — are left alone.
func RestoreCounters(last Sample) {
	counter := func(name string, v int64) {
		if c := C(name); c.Value() < v {
			c.Add(v - c.Value())
		}
	}
	gauge := func(name string, v int64) {
		if g := G(name); g.Value() < v {
			g.Set(v)
		}
	}
	counter(MFuzzExecs, last.FuzzExecs)
	gauge(MFuzzCorpus, last.CorpusSize)
	gauge(MFuzzEdges, last.Edges)
	counter(MProfileTests, last.ProfiledTests)
	gauge(MPMCIdentified, last.PMCs)
	counter(MExecTests, last.TestsExecuted)
	counter(MSchedTrials, last.TrialsRun)
	gauge(MCoverPairs, last.CoverPairs)
	gauge(MCoverSegments, last.CoverSegments)
	gauge(MIssuesFound, last.Issues)
	counter(MQueueDeadLetter, last.DeadLetters)
}

// DefaultSeriesCap bounds the retained samples; at the 1s sampler cadence
// that is hours of trajectory. Overflow drops the oldest samples.
const DefaultSeriesCap = 8192

// Series is a bounded, mutex-guarded time-series of samples, kept sorted by
// time. Merge unions a previously persisted run's samples in (deduplicated
// by timestamp), which is how a resumed campaign's trajectory stays
// continuous across process restarts.
type Series struct {
	mu      sync.Mutex
	cap     int
	samples []Sample
}

// NewSeries returns an empty series retaining up to capacity samples
// (<= 0 uses DefaultSeriesCap).
func NewSeries(capacity int) *Series {
	if capacity <= 0 {
		capacity = DefaultSeriesCap
	}
	return &Series{cap: capacity}
}

// DefaultSeries is the process-wide campaign time-series the sampler feeds
// and /coverage serves.
var DefaultSeries = NewSeries(DefaultSeriesCap)

// Append records one sample. Out-of-order appends are tolerated (the series
// re-sorts); overflow drops the oldest sample.
func (s *Series) Append(sm Sample) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples = append(s.samples, sm)
	if n := len(s.samples); n > 1 && s.samples[n-1].At < s.samples[n-2].At {
		sort.Slice(s.samples, func(i, j int) bool { return s.samples[i].At < s.samples[j].At })
	}
	if len(s.samples) > s.cap {
		s.samples = append(s.samples[:0], s.samples[len(s.samples)-s.cap:]...)
	}
}

// Merge unions older samples (e.g. a previous run's persisted SBTS artifact)
// into the series, deduplicating by timestamp, so merging the same history
// twice is a no-op.
func (s *Series) Merge(old []Sample) {
	if s == nil || len(old) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	have := make(map[int64]bool, len(s.samples))
	for _, sm := range s.samples {
		have[sm.At] = true
	}
	added := false
	for _, sm := range old {
		if !have[sm.At] {
			have[sm.At] = true
			s.samples = append(s.samples, sm)
			added = true
		}
	}
	if added {
		sort.Slice(s.samples, func(i, j int) bool { return s.samples[i].At < s.samples[j].At })
		if len(s.samples) > s.cap {
			s.samples = append(s.samples[:0], s.samples[len(s.samples)-s.cap:]...)
		}
	}
}

// Samples returns a copy of the retained samples in time order.
func (s *Series) Samples() []Sample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Sample(nil), s.samples...)
}

// Len returns the number of retained samples.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// Rate is the campaign's growth rates over a trailing window.
type Rate struct {
	WindowSec         float64 `json:"window_sec"`
	ExecPerMin        float64 `json:"exec_per_min"`         // concurrent tests per minute
	TrialsPerMin      float64 `json:"trials_per_min"`       // interleaving trials per minute
	NewPairsPerMin    float64 `json:"new_pairs_per_min"`    // fresh alias instruction pairs per minute
	NewEdgesPerMin    float64 `json:"new_edges_per_min"`    // fresh sequential coverage edges per minute
	NewSegmentsPerMin float64 `json:"new_segments_per_min"` // fresh interleaving segments per minute
}

// Rate computes growth rates over the trailing window (the whole series
// when window <= 0). With fewer than two samples every rate is zero.
func (s *Series) Rate(window time.Duration) Rate {
	samples := s.Samples()
	if len(samples) < 2 {
		return Rate{}
	}
	last := samples[len(samples)-1]
	first := samples[0]
	if window > 0 {
		cut := last.At - int64(window)
		for _, sm := range samples {
			if sm.At >= cut {
				first = sm
				break
			}
		}
	}
	dt := time.Duration(last.At - first.At)
	if dt <= 0 {
		return Rate{}
	}
	perMin := func(d int64) float64 { return float64(d) / dt.Minutes() }
	return Rate{
		WindowSec:         dt.Seconds(),
		ExecPerMin:        perMin(last.TestsExecuted - first.TestsExecuted),
		TrialsPerMin:      perMin(last.TrialsRun - first.TrialsRun),
		NewPairsPerMin:    perMin(last.CoverPairs - first.CoverPairs),
		NewEdgesPerMin:    perMin(last.Edges - first.Edges),
		NewSegmentsPerMin: perMin(last.CoverSegments - first.CoverSegments),
	}
}

// Plateaued reports whether concurrency coverage (alias instruction pairs)
// has stopped growing: the series spans at least window and the trailing
// window gained fewer than minNew pairs. It returns false while the series
// is too short to judge.
func (s *Series) Plateaued(window time.Duration, minNew int64) bool {
	samples := s.Samples()
	if len(samples) < 2 || window <= 0 {
		return false
	}
	last := samples[len(samples)-1]
	if time.Duration(last.At-samples[0].At) < window {
		return false
	}
	cut := last.At - int64(window)
	first := samples[0]
	for _, sm := range samples {
		if sm.At >= cut {
			first = sm
			break
		}
	}
	return last.CoverPairs-first.CoverPairs < minNew
}

// RecordSample snapshots the Default registry into the DefaultSeries and
// returns the sample. Pipeline stages call this at stage boundaries; the
// periodic sampler calls it on a timer.
func RecordSample() Sample {
	sm := SampleFrom(Default.Snapshot())
	DefaultSeries.Append(sm)
	return sm
}

// StartSampler launches the periodic campaign sampler, appending one sample
// to DefaultSeries every interval. Returns a stop function; interval <= 0
// disables sampling and returns a no-op stop.
func StartSampler(interval time.Duration) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				RecordSample()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// SBTS codec: the persisted form of a campaign time-series. Layout:
//
//	"SBTS" | version u8 | count uvarint | count x sample
//
// where each sample is 12 signed varints: the timestamp delta-encoded
// against the previous sample (absolute for the first), then the eleven
// counter fields. Version 1 payloads (ten counter fields, before
// CoverSegments) still decode — the field order makes them a strict
// prefix — so a feedback campaign can resume a pre-segment state dir.
// The store wraps the payload in its checksummed SBAR envelope, so the
// codec itself carries no checksum; truncated or oversized input fails
// loudly instead of panicking.

// SeriesCodecVersion versions the SBTS encoding.
const SeriesCodecVersion = 2

// seriesV1Fields is how many counter fields a version-1 sample carries.
const seriesV1Fields = 10

// seriesMagic is the SBTS payload magic.
const seriesMagic = "SBTS"

// maxSeriesSamples bounds a decoded sample-count claim; beyond the largest
// series any campaign writes, rejected before allocation.
const maxSeriesSamples = 1 << 20

// EncodeSeries writes samples in the SBTS format.
func EncodeSeries(w io.Writer, samples []Sample) error {
	buf := make([]byte, 0, 16+len(samples)*16)
	buf = append(buf, seriesMagic...)
	buf = append(buf, SeriesCodecVersion)
	buf = binary.AppendUvarint(buf, uint64(len(samples)))
	prevAt := int64(0)
	for i := range samples {
		sm := samples[i]
		buf = binary.AppendVarint(buf, sm.At-prevAt)
		prevAt = sm.At
		for _, f := range sm.fields() {
			buf = binary.AppendVarint(buf, *f)
		}
	}
	_, err := w.Write(buf)
	return err
}

// ErrSeriesCorrupt reports an SBTS payload that failed decoding.
var ErrSeriesCorrupt = errors.New("obs: corrupt time-series artifact")

// DecodeSeries parses an SBTS payload.
func DecodeSeries(r io.Reader) ([]Sample, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) < len(seriesMagic)+1 || string(data[:len(seriesMagic)]) != seriesMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrSeriesCorrupt)
	}
	version := data[len(seriesMagic)]
	if version != 1 && version != SeriesCodecVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrSeriesCorrupt, version)
	}
	data = data[len(seriesMagic)+1:]
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("%w: truncated count", ErrSeriesCorrupt)
	}
	if count > maxSeriesSamples {
		return nil, fmt.Errorf("%w: implausible sample count %d", ErrSeriesCorrupt, count)
	}
	data = data[n:]
	alloc := count
	if alloc > 4096 {
		alloc = 4096 // clamp preallocation against hostile count claims
	}
	out := make([]Sample, 0, alloc)
	prevAt := int64(0)
	next := func() (int64, error) {
		v, n := binary.Varint(data)
		if n <= 0 {
			return 0, fmt.Errorf("%w: truncated sample %d", ErrSeriesCorrupt, len(out))
		}
		data = data[n:]
		return v, nil
	}
	for i := uint64(0); i < count; i++ {
		var sm Sample
		d, err := next()
		if err != nil {
			return nil, err
		}
		sm.At = prevAt + d
		prevAt = sm.At
		fields := sm.fields()
		nf := len(fields)
		if version == 1 {
			nf = seriesV1Fields
		}
		for _, f := range fields[:nf] {
			if *f, err = next(); err != nil {
				return nil, err
			}
		}
		out = append(out, sm)
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSeriesCorrupt, len(data))
	}
	return out, nil
}
