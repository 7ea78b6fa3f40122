// Package par is the worker-pool execution engine behind the parallel
// pipeline stages. Snowboard's throughput comes from running huge numbers
// of independent executions — fuzzing candidates, sequential profiles,
// concurrent-test trials — and par fans those units out across a fixed
// pool of goroutines while keeping results bit-identical to a serial run:
//
//   - units are claimed from an atomic counter, but results land in an
//     index-addressed slice, so the caller folds them in unit order;
//   - randomized units derive their RNG seed from (base seed, stage tag,
//     unit index) via UnitSeed instead of sharing one rand.Rand, so the
//     stream a unit sees is independent of which worker ran it.
//
// Worker IDs are passed to the unit function so callers can give each
// worker exclusive mutable state (an exec.Env clone, a coverage
// accumulator) without locking: par.Map runs exactly one goroutine per
// worker ID.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"snowboard/internal/obs"
)

// Pool metrics (process-wide registry, resolved once).
var (
	mWorkers    = obs.G(obs.MParWorkers)
	mQueueDepth = obs.G(obs.MParQueueDepth)
	mUnits      = obs.C(obs.MParUnits)
	hUnit       = obs.H(obs.MParUnitDuration)
)

// unitSample is the sampling period of the unit-duration histogram: Map
// times the units whose index it divides. Two clock reads per unit were
// 6.6% of a CPU profile of fuzzing campaigns (0.30 of 4.54 s; 16 campaigns
// of 2,000 candidates, 2 vCPUs, go1.24), over observability's 2% budget;
// one unit in 16 costs a sixteenth of that.
const unitSample = 16

// Workers resolves a configured worker count: values <= 0 mean "one per
// available CPU" (GOMAXPROCS).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Stage tags for UnitSeed, one per randomized pipeline stage. The values
// are part of the determinism contract: changing them changes every
// derived seed, so new stages must append rather than renumber.
const (
	StageFuzz uint64 = iota + 1
	StageProfile
	StageIdentify
	StageGenerate
	StageExplore
)

// UnitSeed derives the deterministic RNG seed of one work unit from the
// campaign seed, a stage tag, and the unit's global index. The splitmix64
// finalizer decorrelates adjacent units, so consecutive indices do not
// yield overlapping rand.Rand streams the way seed+i would.
func UnitSeed(base int64, stage uint64, unit int) int64 {
	x := mix64(uint64(base) + stage*0x9E3779B97F4A7C15)
	x = mix64(x ^ (uint64(unit)+1)*0x9E3779B97F4A7C15)
	return int64(x)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Map executes fn for every unit index in [0, n) across a pool of worker
// goroutines and returns the results in unit order. Units are claimed
// dynamically (an atomic counter), so uneven unit costs balance across the
// pool, but the returned slice is always indexed by unit — callers that
// fold it sequentially observe the exact serial order regardless of
// scheduling.
//
// workers is resolved through Workers (0 means GOMAXPROCS) and clamped to
// n. fn receives (worker, unit): worker is the pool slot in [0, workers),
// and Map guarantees a single goroutine per slot, so per-worker state
// needs no locking. With one worker, fn runs inline on the caller's
// goroutine.
func Map[R any](workers, n int, fn func(worker, unit int) R) []R {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	results := make([]R, n)
	mWorkers.Add(int64(workers))
	mQueueDepth.Add(int64(n))
	defer mWorkers.Add(int64(-workers))

	run := func(worker, unit int) {
		mQueueDepth.Add(-1)
		if unit%unitSample != 0 {
			results[unit] = fn(worker, unit)
		} else {
			start := time.Now()
			results[unit] = fn(worker, unit)
			hUnit.ObserveDuration(time.Since(start))
		}
		mUnits.Inc()
	}

	if workers == 1 {
		for unit := 0; unit < n; unit++ {
			run(0, unit)
		}
		return results
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				unit := int(next.Add(1)) - 1
				if unit >= n {
					return
				}
				run(worker, unit)
			}
		}(w)
	}
	wg.Wait()
	return results
}
