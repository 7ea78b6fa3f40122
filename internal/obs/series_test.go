package obs

import (
	"bytes"
	"testing"
	"time"
)

func sampleAt(at int64, pairs int64) Sample {
	return Sample{
		At: at, FuzzExecs: at / 2, CorpusSize: 7, Edges: at / 3,
		TestsExecuted: at / 5, TrialsRun: at * 2, CoverPairs: pairs,
	}
}

// TestSeriesAppendAndCap: the sampler goroutine and the stage boundaries
// append concurrently, so a snapshot can land after a later one; the
// series reads back in time order and keeps the newest samples.
func TestSeriesAppendAndCap(t *testing.T) {
	s := NewSeries(4)
	for _, i := range []int64{1, 2, 3, 5, 4, 6, 7, 9, 8, 10} {
		s.Append(sampleAt(i*1000, i))
	}
	got := s.Samples()
	if len(got) != 4 {
		t.Fatalf("capped series holds %d samples, want 4", len(got))
	}
	for i, sm := range got {
		if want := int64(7000 + 1000*i); sm.At != want {
			t.Fatalf("sample %d at %d, want %d: the newest four in time order", i, sm.At, want)
		}
	}
}

func TestSeriesRateAndPlateau(t *testing.T) {
	s := NewSeries(0)
	base := time.Now().UnixNano()
	min := int64(time.Minute)
	// Coverage grows for two minutes, then flattens for two.
	s.Append(Sample{At: base, CoverPairs: 0, TestsExecuted: 0})
	s.Append(Sample{At: base + min, CoverPairs: 60, TestsExecuted: 30})
	s.Append(Sample{At: base + 2*min, CoverPairs: 120, TestsExecuted: 60})
	s.Append(Sample{At: base + 3*min, CoverPairs: 120, TestsExecuted: 90})
	s.Append(Sample{At: base + 4*min, CoverPairs: 120, TestsExecuted: 120})

	overall := s.Rate(0)
	if overall.ExecPerMin != 30 {
		t.Fatalf("overall exec/min = %v, want 30", overall.ExecPerMin)
	}
	if overall.NewPairsPerMin != 30 {
		t.Fatalf("overall pairs/min = %v, want 30", overall.NewPairsPerMin)
	}
	trailing := s.Rate(time.Minute)
	if trailing.NewPairsPerMin != 0 {
		t.Fatalf("trailing pairs/min = %v, want 0 (flat tail)", trailing.NewPairsPerMin)
	}
	if !s.Plateaued(time.Minute, 1) {
		t.Fatal("flat trailing minute must report plateaued")
	}
	if s.Plateaued(10*time.Minute, 1) {
		t.Fatal("series shorter than the window must not report plateaued")
	}

	short := NewSeries(0)
	short.Append(Sample{At: base})
	if short.Plateaued(time.Minute, 1) {
		t.Fatal("single-sample series must not report plateaued")
	}
	if r := short.Rate(0); r != (Rate{}) {
		t.Fatalf("single-sample rate = %+v, want zero", r)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q.duration_ns")
	// 100 observations of 10 and 100 observations of 1000: p50 lands in the
	// bucket holding 10, p99 in the bucket holding 1000.
	for i := 0; i < 100; i++ {
		h.Observe(10)
		h.Observe(1000)
	}
	snap := r.Snapshot().Histogram("q.duration_ns")
	p50 := snap.Quantile(0.5)
	if p50 < 8 || p50 > 15 {
		t.Fatalf("p50 = %d, want within the [8,15] bucket", p50)
	}
	p99 := snap.Quantile(0.99)
	if p99 < 512 || p99 > 1023 {
		t.Fatalf("p99 = %d, want within the [512,1023] bucket", p99)
	}
	if snap.Quantile(0) <= 0 {
		t.Fatalf("q=0 = %d, want positive (rank clamps to 1)", snap.Quantile(0))
	}
	if max := snap.Quantile(1); max < 512 {
		t.Fatalf("q=1 = %d, want in the top occupied bucket", max)
	}
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %d, want 0", got)
	}
}

func TestPrometheusCountNeverBelowCumulative(t *testing.T) {
	// Snapshot loads count before buckets; under concurrent bumps cum can
	// exceed count. WritePrometheus must clamp so +Inf == _count and the
	// series stays monotone. Simulate the skew directly.
	snap := HistogramSnapshot{Count: 2, Sum: 30, Buckets: []int64{0, 0, 0, 3}}
	var buf bytes.Buffer
	s := Snapshot{Histograms: map[string]HistogramSnapshot{"skewed.duration_ns": snap}}
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`le="+Inf"} 3`, // clamped to cum, not the stale count
		"_count 3",
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRecordSampleFeedsDefaultSeries(t *testing.T) {
	before := DefaultSeries.Len()
	sm := RecordSample()
	if sm.At == 0 {
		t.Fatal("RecordSample produced a zero timestamp")
	}
	if DefaultSeries.Len() != before+1 {
		t.Fatalf("DefaultSeries grew %d -> %d, want +1", before, DefaultSeries.Len())
	}
}
