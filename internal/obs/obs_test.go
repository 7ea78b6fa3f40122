package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test.counter")
	if reg.Counter("test.counter") != c {
		t.Fatal("same name must return the same counter")
	}
	const goroutines, bumps = 32, 10_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < bumps; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*bumps {
		t.Fatalf("counter = %d, want %d", got, goroutines*bumps)
	}
}

func TestGaugeConcurrent(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("test.inflight")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0 after balanced adds", got)
	}
	g.Set(42)
	if got := g.Value(); got != 42 {
		t.Fatalf("gauge = %d, want 42", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1 << 40, 41}, {int64(1)<<62 + 1, 63},
	}
	for _, tc := range cases {
		if got := bucketOf(tc.v); got != tc.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.v, got, tc.bucket)
		}
	}
	// Bucket i's inclusive upper bound must admit exactly the values the
	// bucket function assigns to it.
	for i := 1; i < 62; i++ {
		up := BucketUpper(i)
		if bucketOf(up) != i {
			t.Errorf("BucketUpper(%d) = %d lands in bucket %d", i, up, bucketOf(up))
		}
		if bucketOf(up+1) != i+1 {
			t.Errorf("BucketUpper(%d)+1 = %d lands in bucket %d, want %d", i, up+1, bucketOf(up+1), i+1)
		}
	}

	reg := NewRegistry()
	h := reg.Histogram("test.hist")
	for _, v := range []int64{0, 1, 2, 3, 1000, 1 << 20} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if want := int64(0 + 1 + 2 + 3 + 1000 + 1<<20); h.Sum() != want {
		t.Fatalf("sum = %d, want %d", h.Sum(), want)
	}
	hs := reg.Snapshot().Histogram("test.hist")
	var n int64
	for _, b := range hs.Buckets {
		n += b
	}
	if n != hs.Count {
		t.Fatalf("bucket total %d != count %d", n, hs.Count)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test.conc")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				h.Observe(int64(g*i) % 4096)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 8*5000 {
		t.Fatalf("count = %d, want %d", h.Count(), 8*5000)
	}
}

func TestSnapshotConsistencyAndDelta(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h")
	c.Add(10)
	g.Set(5)
	h.Observe(100)
	s1 := reg.Snapshot()
	c.Add(7)
	g.Set(9)
	h.Observe(200)
	s2 := reg.Snapshot()

	if s1.Counter("c") != 10 || s2.Counter("c") != 17 {
		t.Fatalf("counters: %d, %d", s1.Counter("c"), s2.Counter("c"))
	}
	d := s2.Sub(s1)
	if d.Counter("c") != 7 {
		t.Fatalf("delta counter = %d, want 7", d.Counter("c"))
	}
	if d.Gauge("g") != 9 {
		t.Fatalf("delta gauge = %d, want instantaneous 9", d.Gauge("g"))
	}
	dh := d.Histogram("h")
	if dh.Count != 1 || dh.Sum != 200 {
		t.Fatalf("delta hist = %+v, want count 1 sum 200", dh)
	}
	// Snapshots are value copies: mutating the registry later must not
	// change an already-taken snapshot.
	c.Add(100)
	if s2.Counter("c") != 17 {
		t.Fatalf("snapshot mutated: %d", s2.Counter("c"))
	}
}

func TestSnapshotUnderConcurrentBumps(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
				}
			}
		}()
	}
	var last int64
	for i := 0; i < 100; i++ {
		s := reg.Snapshot()
		v := s.Counter("c")
		if v < last {
			t.Fatalf("snapshot counter went backwards: %d < %d", v, last)
		}
		last = v
	}
	close(stop)
	wg.Wait()
}

func TestNilSafety(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var sp *Span
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || sp.End() != 0 {
		t.Fatal("nil metrics must be inert")
	}
}

func TestSpanFeedsHistogramAndJSONL(t *testing.T) {
	reg := NewRegistry()
	var buf bytes.Buffer
	tr := NewTracer(&buf, reg)
	sp := tr.Start("stage.demo", A("k", "v"))
	time.Sleep(time.Millisecond)
	dur := sp.End(A("outcome", 3))
	if dur < time.Millisecond {
		t.Fatalf("span duration %v too short", dur)
	}
	h := reg.Snapshot().Histogram("stage.demo.duration_ns")
	if h.Count != 1 || h.Sum != int64(dur) {
		t.Fatalf("histogram = %+v, want count 1 sum %d", h, int64(dur))
	}
	var ev struct {
		Event string         `json:"ev"`
		Name  string         `json:"name"`
		DurNS int64          `json:"dur_ns"`
		Attrs map[string]any `json:"attrs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &ev); err != nil {
		t.Fatalf("JSONL event: %v (%q)", err, buf.String())
	}
	if ev.Event != "span" || ev.Name != "stage.demo" || ev.DurNS != int64(dur) {
		t.Fatalf("event = %+v", ev)
	}
	if ev.Attrs["k"] != "v" || ev.Attrs["outcome"] != float64(3) {
		t.Fatalf("attrs = %v", ev.Attrs)
	}
}

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("exec.tests").Add(5)
	reg.Gauge("fuzz.corpus_size").Set(7)
	reg.Histogram("stage.exec.duration_ns").Observe(3)
	var buf bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE snowboard_exec_tests counter",
		"snowboard_exec_tests 5",
		"# TYPE snowboard_fuzz_corpus_size gauge",
		"snowboard_fuzz_corpus_size 7",
		"# TYPE snowboard_stage_exec_duration_ns histogram",
		`snowboard_stage_exec_duration_ns_bucket{le="3"} 1`,
		`snowboard_stage_exec_duration_ns_bucket{le="+Inf"} 1`,
		"snowboard_stage_exec_duration_ns_sum 3",
		"snowboard_stage_exec_duration_ns_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryReset(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	c.Add(9)
	reg.Histogram("h").Observe(4)
	reg.Reset()
	if c.Value() != 0 {
		t.Fatal("reset must zero counters in place")
	}
	if reg.Counter("c") != c {
		t.Fatal("reset must keep handle identity")
	}
	if reg.Snapshot().Histogram("h").Count != 0 {
		t.Fatal("reset must zero histograms")
	}
}

func TestProgressFrom(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MExecTests).Add(10)
	reg.Gauge(MFuzzCorpus).Set(120)
	reg.Gauge(MIssuesFound).Set(4)
	// 10 tests in 2 minutes of exec.test span time -> 5 exec/min.
	h := reg.Histogram("exec.test.duration_ns")
	for i := 0; i < 10; i++ {
		h.Observe(int64(12 * time.Second))
	}
	p := ProgressFrom(reg.Snapshot())
	if p.TestsExecuted != 10 || p.CorpusSize != 120 || p.IssuesFound != 4 {
		t.Fatalf("progress = %+v", p)
	}
	if p.ExecPerMin < 4.99 || p.ExecPerMin > 5.01 {
		t.Fatalf("exec/min = %v, want 5", p.ExecPerMin)
	}
	if !strings.Contains(p.String(), "exec/min=5.0") {
		t.Fatalf("progress line: %s", p.String())
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}
