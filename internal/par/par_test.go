package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"snowboard/internal/obs"
)

func TestWorkersResolve(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d", got)
	}
}

func TestMapResultsIndexedByUnit(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		got := Map(workers, 50, func(worker, unit int) int { return unit * unit })
		if len(got) != 50 {
			t.Fatalf("workers=%d: len = %d, want 50", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if got := Map(4, 0, func(worker, unit int) int { return 1 }); got != nil {
		t.Fatalf("Map over zero units = %v, want nil", got)
	}
}

// Each pool slot must be driven by exactly one goroutine, so per-worker
// state (Env clones, coverage accumulators) needs no locking.
func TestMapOneGoroutinePerWorker(t *testing.T) {
	const workers, units = 4, 200
	var active [workers]atomic.Int32
	var maxSeen atomic.Int32
	Map(workers, units, func(worker, unit int) struct{} {
		if worker < 0 || worker >= workers {
			t.Errorf("worker id %d out of range", worker)
		}
		if n := active[worker].Add(1); n > 1 {
			t.Errorf("worker %d entered concurrently (%d)", worker, n)
		}
		if w := int32(worker); w >= maxSeen.Load() {
			maxSeen.Store(w)
		}
		for i := 0; i < 100; i++ {
			runtime.Gosched()
		}
		active[worker].Add(-1)
		return struct{}{}
	})
	_ = maxSeen.Load()
}

func TestMapClampsWorkersToUnits(t *testing.T) {
	seen := make(map[int]bool)
	var mu sync.Mutex
	Map(16, 3, func(worker, unit int) struct{} {
		mu.Lock()
		seen[worker] = true
		mu.Unlock()
		return struct{}{}
	})
	for w := range seen {
		if w >= 3 {
			t.Fatalf("worker id %d despite only 3 units", w)
		}
	}
}

func TestUnitSeedDeterministicAndDistinct(t *testing.T) {
	if UnitSeed(7, StageFuzz, 3) != UnitSeed(7, StageFuzz, 3) {
		t.Fatal("UnitSeed is not deterministic")
	}
	seen := make(map[int64]string)
	for _, base := range []int64{0, 1, 99} {
		for _, stage := range []uint64{StageFuzz, StageGenerate, StageExplore} {
			for unit := 0; unit < 64; unit++ {
				s := UnitSeed(base, stage, unit)
				key := string(rune(base)) + string(rune(stage)) + string(rune(unit))
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: %q and %q both give %d", prev, key, s)
				}
				seen[s] = key
			}
		}
	}
}

func TestMapBumpsPoolMetrics(t *testing.T) {
	before := obs.Default.Snapshot()
	Map(2, 7, func(worker, unit int) int { return unit })
	if d := obs.Default.Snapshot().Counter(obs.MParUnits) - before.Counter(obs.MParUnits); d != 7 {
		t.Fatalf("par.units delta = %d, want 7", d)
	}
	if g := obs.Default.Gauge(obs.MParWorkers).Value(); g != 0 {
		t.Fatalf("par.workers gauge = %d after Map returned, want 0", g)
	}
	if g := obs.Default.Gauge(obs.MParQueueDepth).Value(); g != 0 {
		t.Fatalf("par.queue_depth gauge = %d after Map returned, want 0", g)
	}
}
