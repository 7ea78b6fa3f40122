package cover

import "snowboard/internal/trace"

// Metric is the common shape of a concurrency-coverage accumulator. All
// implementations share two contracts the pipeline depends on:
//
//   - AddTrace is the only observation path: it folds one trial trace in
//     and reports how many units (pairs, segments) were new to the
//     accumulator.
//   - Merge is commutative and associative on the *covered set*: merging
//     per-worker accumulators in any order yields the same distinct-unit
//     set as one shared accumulator, so the parallel fold introduced in
//     PR 2 stays order-independent. (Hit counts, where a metric keeps
//     them, add and are likewise order-independent.)
//
// Merge panics if the two accumulators are different concrete metrics;
// the pipeline never mixes them.
type Metric interface {
	// AddTrace folds one trial trace in and returns how many new units
	// it contributed.
	AddTrace(tr *trace.Trace) int
	// Merge folds other into the receiver and returns how many of
	// other's units were new. other is not modified; merging an
	// accumulator into itself is not supported.
	Merge(other Metric) int
	// Len returns the number of distinct units covered so far.
	Len() int
}

// addCounts adds src's hit counts into dst and returns how many of its
// units were new to dst.
func addCounts[K comparable](dst, src map[K]int) int {
	fresh := 0
	for k, n := range src {
		if dst[k] == 0 {
			fresh++
		}
		dst[k] += n
	}
	return fresh
}

// addEach adds one hit for each of src's units, which are distinct, into
// dst and returns how many of them were new to dst.
func addEach[K comparable](dst map[K]int, src []K) int {
	fresh := 0
	for _, k := range src {
		if dst[k] == 0 {
			fresh++
		}
		dst[k]++
	}
	return fresh
}
