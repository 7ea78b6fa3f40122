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

func TestSeriesAppendAndCap(t *testing.T) {
	s := NewSeries(4)
	for i := int64(1); i <= 10; i++ {
		s.Append(sampleAt(i*1000, i))
	}
	got := s.Samples()
	if len(got) != 4 {
		t.Fatalf("capped series holds %d samples, want 4", len(got))
	}
	if got[0].At != 7000 || got[3].At != 10000 {
		t.Fatalf("retained [%d..%d], want the newest [7000..10000]", got[0].At, got[3].At)
	}
}

func TestSeriesMergeIdempotent(t *testing.T) {
	s := NewSeries(0)
	s.Append(sampleAt(3000, 3))
	s.Append(sampleAt(4000, 4))
	old := []Sample{sampleAt(1000, 1), sampleAt(2000, 2), sampleAt(3000, 3)}
	s.Merge(old)
	if got := s.Len(); got != 4 {
		t.Fatalf("merged series holds %d samples, want 4 (3000 deduped)", got)
	}
	// Merging the same history again must change nothing — the compare mode
	// loads one persisted artifact into eleven pipelines.
	s.Merge(old)
	got := s.Samples()
	if len(got) != 4 {
		t.Fatalf("re-merge grew the series to %d samples", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].At >= got[i].At {
			t.Fatalf("merge broke time order at %d: %d >= %d", i, got[i-1].At, got[i].At)
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

func TestSeriesCodecRoundTrip(t *testing.T) {
	cases := [][]Sample{
		nil,
		{sampleAt(1, 0)},
		{
			{At: 1700000000000000000, FuzzExecs: 400, CorpusSize: 120, Edges: 900,
				ProfiledTests: 120, PMCs: 3000, TestsExecuted: 60, TrialsRun: 960,
				CoverPairs: 210, Issues: 4, DeadLetters: 1},
			{At: 1700000001000000000, FuzzExecs: 800, CorpusSize: 120, Edges: 901,
				ProfiledTests: 240, PMCs: 3100, TestsExecuted: 120, TrialsRun: 1900,
				CoverPairs: 290, Issues: 5, DeadLetters: 1},
		},
		{sampleAt(-5, -7), sampleAt(0, 0), sampleAt(5, 7)}, // negative values survive varint
	}
	for ci, samples := range cases {
		var buf bytes.Buffer
		if err := EncodeSeries(&buf, samples); err != nil {
			t.Fatalf("case %d: encode: %v", ci, err)
		}
		got, err := DecodeSeries(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("case %d: decode: %v", ci, err)
		}
		if len(got) != len(samples) {
			t.Fatalf("case %d: %d samples round-tripped to %d", ci, len(samples), len(got))
		}
		for i := range samples {
			if got[i] != samples[i] {
				t.Fatalf("case %d sample %d: %+v != %+v", ci, i, got[i], samples[i])
			}
		}
	}
}

func TestSeriesCodecHostileInput(t *testing.T) {
	var good bytes.Buffer
	if err := EncodeSeries(&good, []Sample{sampleAt(1000, 1), sampleAt(2000, 2)}); err != nil {
		t.Fatal(err)
	}
	full := good.Bytes()

	// Every truncation of a valid payload must fail loudly, never panic or
	// return a silently short series.
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeSeries(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(full))
		}
	}
	// Trailing garbage is corruption too.
	if _, err := DecodeSeries(bytes.NewReader(append(append([]byte{}, full...), 0x01))); err == nil {
		t.Fatal("trailing byte decoded without error")
	}
	// Wrong magic and wrong version.
	bad := append([]byte{}, full...)
	bad[0] = 'X'
	if _, err := DecodeSeries(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic decoded without error")
	}
	bad = append([]byte{}, full...)
	bad[4] = 99
	if _, err := DecodeSeries(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad version decoded without error")
	}
	// A hostile count claim beyond maxSeriesSamples is rejected before any
	// allocation.
	hostile := []byte("SBTS\x01\xff\xff\xff\xff\x7f")
	if _, err := DecodeSeries(bytes.NewReader(hostile)); err == nil {
		t.Fatal("implausible count decoded without error")
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

// TestRestoreCountersCoversEverySampleField: SampleFrom and RestoreCounters
// read one table, so after restoring a sample that is ahead on every field
// the registry must read at least that sample back — a field the table
// misses or files under the wrong kind stays behind.
func TestRestoreCountersCoversEverySampleField(t *testing.T) {
	want := SampleFrom(Default.Snapshot())
	for i, f := range want.fields() {
		*f += int64(i + 1)
	}
	RestoreCounters(want)
	snap := Default.Snapshot()
	got := SampleFrom(snap)
	wf, gf := want.fields(), got.fields()
	for i := range wf {
		if *gf[i] < *wf[i] {
			t.Errorf("field %d (%s): restored %d, read back %d", i, sampleMetrics[i].name, *wf[i], *gf[i])
		}
	}
	for name := range snap.Gauges {
		if _, ok := snap.Counters[name]; ok {
			t.Errorf("%s is registered as both a counter and a gauge", name)
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
