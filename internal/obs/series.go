package obs

import (
	"sort"
	"sync"
	"time"
)

// The coverage time-series: periodic snapshots of this process's progress
// counters, retained as a ring of samples so exec/min, new-pairs/min, and
// plateaus are computable over any window — the signal a feedback-driven
// fuzzing loop selects on. The series describes the live process only:
// nothing about it is persisted, merged or restored, so a resumed run's
// series starts at the resume.

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

// DefaultSeriesCap bounds the retained samples; at the 1s sampler cadence
// that is hours of trajectory. Overflow drops the oldest samples.
const DefaultSeriesCap = 8192

// Series is a bounded, mutex-guarded time-series of samples, kept sorted by
// time.
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
// re-sorts: the sampler and the stage boundaries append concurrently, so two
// snapshots can land out of order); overflow drops the oldest sample.
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
