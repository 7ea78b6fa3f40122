// Package obs is the observability layer for the Snowboard pipeline: a
// process-wide metrics registry of lock-free counters, gauges, and
// log-scale histograms (spans time stages and tests into them), a flight
// recorder of typed events with one optional JSONL sink, a live
// introspection HTTP server (Prometheus text, /progress, /events,
// /coverage, /campaign, pprof), and a stderr diagnostics logger with a
// periodic one-line progress report.
//
// The paper's evaluation (§5.4) is built on operational numbers — tests
// profiled per second, generated tests/s, exec/min, interleavings per
// exposed bug — and this package is where those numbers come from: every
// pipeline stage bumps the registry, and reports are views over it.
//
// Counters and gauges are single atomic words; bumping one from the
// VM/scheduler hot path costs a few nanoseconds and never allocates (see
// BenchmarkCounterInc); bench/'s obs.*.ns and trace_overhead_pct metrics
// bound the instrumentation cost.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Well-known metric names. Instrumented packages resolve their handles once
// at init, so the hot path is a plain atomic add; these constants exist so
// readers of /metrics, /progress, and the code agree on spelling.
const (
	// Stage 1: sequential fuzzing and profiling.
	MFuzzExecs     = "fuzz.execs"       // counter: candidates folded, run or answered by the campaign's memo
	MFuzzCrashes   = "fuzz.crashes"     // counter: discarded crashing sequential tests
	MFuzzSelected  = "fuzz.selected"    // counter: tests kept for new coverage
	MFuzzCorpus    = "fuzz.corpus_size" // gauge: current corpus size
	MFuzzEdges     = "fuzz.edges"       // gauge: distinct coverage edges
	MProfileTests  = "profile.tests"    // counter: sequential tests profiled
	MProfileAccess = "profile.accesses" // counter: shared accesses recorded

	// Stage 2: PMC identification.
	MPMCIdentified   = "pmc.identified"   // gauge: distinct PMC keys in the last identified set
	MPMCCombinations = "pmc.combinations" // gauge: uncapped (PMC, writer, reader) combinations

	// Incremental identification (pmc.Incremental): profiles diff against a
	// cumulative index instead of re-pairing the whole corpus.
	MIncrBatches    = "pmc.incremental.batches"     // counter: profile batches ingested incrementally
	MIncrDeltaPairs = "pmc.incremental.delta_pairs" // counter: combinations identified by delta scans
	MIncrReuse      = "pmc.incremental.reuse_ratio" // gauge: percent of cumulative combinations reused (not re-scanned) by the latest batch

	// Stage 3/4: generation and concurrent execution.
	MGenTests        = "gen.tests"               // counter: concurrent tests generated
	MExecTests       = "exec.tests"              // counter: concurrent tests explored
	MExecTestDur     = "exec.test.duration_ns"   // histogram: the exec.test span, one concurrent test's exploration
	MExecRuns        = "exec.runs"               // counter: VM executions (sequential + pair)
	MExecCrashes     = "exec.crashes"            // counter: executions that crashed the kernel
	MExecSteps       = "exec.steps"              // counter: VM events processed
	MSchedTrials     = "sched.trials"            // counter: interleaving trials run
	MSchedSwitches   = "sched.switches"          // counter: induced preemptions
	MSchedChannelHit = "sched.channel_hits"      // counter: hinted tests whose channel occurred
	MSchedIncidental = "sched.incidental_adopts" // counter: incidental PMCs adopted (Alg. 2 l.26–27)

	// Parallel execution engine (internal/par).
	MParWorkers      = "par.workers"          // gauge: worker goroutines in active pools
	MParQueueDepth   = "par.queue_depth"      // gauge: units not yet claimed by a worker
	MParUnits        = "par.units"            // counter: work units executed
	MParUnitDuration = "par.unit.duration_ns" // histogram: per-unit wall time

	// Oracles.
	MDetectReports = "detect.reports"      // counter: raw oracle findings (incl. re-observations)
	MDetectHarmful = "detect.harmful"      // counter: harmful findings
	MIssuesFound   = "detect.issues_found" // gauge: distinct issues in the current run's report

	// Concurrency coverage (internal/cover via core): published as gauges
	// so the time-series sampler can track them without importing cover.
	MCoverPairs    = "cover.pairs"    // gauge: distinct alias instruction pairs covered
	MCoverSegments = "cover.segments" // gauge: distinct interleaving segments covered

	// Feedback loop (core.RunFeedback). Per-cluster budget counters are
	// named MGenBudgetPrefix + a short stable cluster label; cardinality is
	// bounded by the cluster count of the chosen strategy.
	MGenBudgetPrefix = "gen.budget." // counter: tests allocated to one PMC cluster
	MFeedbackRounds  = "gen.rounds"  // counter: feedback rounds completed

	// Post-detect triage (internal/triage via core.Pipeline.TriageReport).
	MTriageFindings = "triage.findings"   // counter: crash-level findings minimized into bundles
	MTriageReplays  = "triage.replays"    // counter: replays spent by schedule/test minimization
	MTriageCached   = "triage.cache_hits" // counter: findings restored from a stored bundle on resume

	// Content-addressed artifact store (internal/store) and stage-graph
	// memoization (internal/core).
	MStoreHits         = "store.stage_hits"    // counter: pipeline stages satisfied from the store
	MStoreMisses       = "store.stage_misses"  // counter: pipeline stages that had to run
	MStoreWrites       = "store.writes"        // counter: artifact/stage files written
	MStoreBytesWritten = "store.bytes_written" // counter: payload bytes written
	MStoreCorrupt      = "store.corrupt"       // counter: artifacts that failed verification on read

	// Distributed queue. MQueueDepth aggregates the pending depth across
	// every queue in the process (each queue contributes deltas); per-queue
	// depth lives in "queue.<name>.depth" gauges, the one per-queue series.
	// queue.push counts in-process pushes: push is not a wire op, so there
	// is no queue.net.push.
	MQueuePush       = "queue.push"                // counter: jobs enqueued
	MQueueReport     = "queue.report"              // counter: results recorded
	MQueueDepth      = "queue.depth"               // gauge: jobs waiting, summed over all queues
	MQueueLease      = "queue.lease"               // counter: leases granted
	MQueueAck        = "queue.ack"                 // counter: leases acked (job done)
	MQueueNack       = "queue.nack"                // counter: leases nacked back by workers
	MQueueRedeliver  = "queue.redeliver"           // counter: jobs requeued after lease expiry or nack
	MQueueDeadLetter = "queue.dead_letter"         // counter: jobs dead-lettered after max attempts
	MQueueLeaseAge   = "queue.lease_age_ns"        // histogram: lease hold time at ack
	MQueueNetConns   = "queue.net.conns"           // counter: TCP connections accepted
	MQueueNetInFl    = "queue.net.inflight"        // gauge: connections currently served
	MQueueNetBadReq  = "queue.net.bad_requests"    // counter: malformed/unknown requests answered
	MQueueNetLease   = "queue.net.lease"           // counter: lease frames served (one per turn)
	MQueueNetSettle  = "queue.net.settle"          // counter: settle frames served (one per turn)
	MQueueNetNack    = "queue.net.nack"            // counter: nack ops served
	MQueueNetExtend  = "queue.net.extend"          // counter: extend ops served
	MQueueNetUnknown = "queue.net.unknown_op"      // counter: unknown ops answered
	MQueueNetReconn  = "queue.net.reconnects"      // counter: client reconnects after I/O errors
	MQueueNetBigFrm  = "queue.net.frame_too_large" // counter: frames rejected by the size cap

	// Worker-process health (cmd/sbexec).
	MWorkerPoisoned = "worker.poisoned" // counter: jobs nacked as unprocessable by a worker

	// Introspection-server health.
	MObsServeErrors = "obs.http.serve_errors" // counter: introspection listeners that failed while serving
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by n (useful for in-flight tracking).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// histBuckets is the number of log2 histogram buckets: bucket 0 holds the
// value 0 (and negatives, clamped), bucket i≥1 holds values in
// [2^(i-1), 2^i), i.e. upper bound 2^i-1.
const histBuckets = 64

// Histogram is a log-scale (power-of-two bucket) histogram of int64
// observations, typically duration nanoseconds. All fields are atomics, so
// Observe is lock-free and allocation-free.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketOf maps an observation to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	i := bits.Len64(uint64(v))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// BucketUpper returns the inclusive upper bound of bucket i.
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return int64(^uint64(0) >> 1)
	}
	return int64(1)<<uint(i) - 1
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Registry is a named collection of metrics. The zero value is not usable;
// call NewRegistry. The process-wide instance is Default.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	start    time.Time
}

// NewRegistry returns an empty registry anchored at the current time
// (uptime in snapshots is measured from here).
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		start:    time.Now(),
	}
}

// Default is the process-wide registry every package-level metric lives in
// and the introspection server exposes.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// C returns a counter from the Default registry.
func C(name string) *Counter { return Default.Counter(name) }

// G returns a gauge from the Default registry.
func G(name string) *Gauge { return Default.Gauge(name) }

// H returns a histogram from the Default registry.
func H(name string) *Histogram { return Default.Histogram(name) }

// HistogramSnapshot is the frozen state of one histogram.
type HistogramSnapshot struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Buckets []int64 `json:"buckets,omitempty"` // log2 buckets, trailing zeros trimmed
}

// Quantile estimates the q-quantile (q in [0,1], e.g. 0.5 or 0.99) from the
// log2 buckets: it locates the bucket holding the target rank and
// interpolates linearly within it. Resolution is bounded by the bucket
// width — at most a factor of two — which is plenty for p50/p99 latency
// readouts. Returns 0 with no observations.
func (h HistogramSnapshot) Quantile(q float64) int64 {
	total := int64(0)
	for _, n := range h.Buckets {
		total += n
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	cum := int64(0)
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		cum += n
		if cum >= rank {
			lo := int64(0)
			if i > 0 {
				lo = BucketUpper(i-1) + 1
			}
			hi := BucketUpper(i)
			frac := float64(rank-(cum-n)) / float64(n)
			return lo + int64(frac*float64(hi-lo))
		}
	}
	return BucketUpper(len(h.Buckets) - 1)
}

// Snapshot is a point-in-time view of a registry, safe to serialize.
// Individual values are loaded atomically; the set as a whole is gathered
// while bumps may be in flight, so cross-metric invariants are approximate
// during a live run and exact once the producers have stopped.
type Snapshot struct {
	TakenAt    time.Time                    `json:"taken_at"`
	UptimeSec  float64                      `json:"uptime_sec"`
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	s := Snapshot{
		TakenAt:    now,
		UptimeSec:  now.Sub(r.start).Seconds(),
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.v.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.v.Load()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
		top := -1
		var buckets [histBuckets]int64
		for i := range h.buckets {
			buckets[i] = h.buckets[i].Load()
			if buckets[i] != 0 {
				top = i
			}
		}
		if top >= 0 {
			hs.Buckets = append([]int64(nil), buckets[:top+1]...)
		}
		s.Histograms[name] = hs
	}
	return s
}

// Counter returns a counter value from the snapshot (0 if absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns a gauge value from the snapshot (0 if absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Histogram returns a histogram from the snapshot (zero value if absent).
func (s Snapshot) Histogram(name string) HistogramSnapshot { return s.Histograms[name] }

// promName maps an internal dotted metric name to a valid Prometheus
// identifier: snowboard_ prefix, invalid runes replaced with '_'.
func promName(name string) string {
	b := []byte("snowboard_" + name)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (counters, gauges, and classic cumulative-bucket histograms),
// sorted by name for stable output.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[name]); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", pn, pn, s.Gauges[name]); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
			return err
		}
		cum := int64(0)
		for i, n := range h.Buckets {
			cum += n
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", pn, BucketUpper(i), cum); err != nil {
				return err
			}
		}
		// Snapshot loads count before buckets, so a bump landing in between
		// can leave cum > Count; clamp the +Inf bucket and _count up to cum
		// so the exposition stays a valid (monotone) Prometheus histogram
		// even mid-run.
		total := h.Count
		if cum > total {
			total = cum
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			pn, total, pn, h.Sum, pn, total); err != nil {
			return err
		}
	}
	return nil
}
