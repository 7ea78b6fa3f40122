package obs

import (
	"bytes"
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
	hs := reg.Snapshot().Histogram("test.hist")
	if hs.Count != 6 {
		t.Fatalf("count = %d, want 6", hs.Count)
	}
	if want := int64(0 + 1 + 2 + 3 + 1000 + 1<<20); hs.Sum != want {
		t.Fatalf("sum = %d, want %d", hs.Sum, want)
	}
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
	if n := reg.Snapshot().Histogram("test.conc").Count; n != 8*5000 {
		t.Fatalf("count = %d, want %d", n, 8*5000)
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
	if s1.Gauge("g") != 5 || s2.Gauge("g") != 9 {
		t.Fatalf("gauges: %d, %d", s1.Gauge("g"), s2.Gauge("g"))
	}
	h1, h2 := s1.Histogram("h"), s2.Histogram("h")
	if h2.Count-h1.Count != 1 || h2.Sum-h1.Sum != 200 {
		t.Fatalf("hist %+v -> %+v, want +1 observation of 200", h1, h2)
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
	if c.Value() != 0 || g.Value() != 0 || sp.End() != 0 {
		t.Fatal("nil metrics must be inert")
	}
}

func TestSpanFeedsHistogram(t *testing.T) {
	// A span writes no line of its own: it only feeds "<name>.duration_ns".
	before := Default.Snapshot().Histogram("stage.demo.duration_ns")
	sp := StartSpan("stage.demo")
	time.Sleep(time.Millisecond)
	dur := sp.End()
	if dur < time.Millisecond {
		t.Fatalf("span duration %v too short", dur)
	}
	h := Default.Snapshot().Histogram("stage.demo.duration_ns")
	if h.Count-before.Count != 1 || h.Sum-before.Sum != int64(dur) {
		t.Fatalf("histogram %+v -> %+v, want +1 observation of %d", before, h, int64(dur))
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
