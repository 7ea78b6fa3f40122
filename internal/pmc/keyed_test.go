package pmc_test

import (
	"math/rand"
	"testing"

	"snowboard/internal/pmc"
	"snowboard/internal/pmc/difftest"
	"snowboard/internal/trace"
)

// TestIncrementalBatchOrderShuffleInvariant is the order-independence
// property of the keyed engine: deal a corpus into any number of batches —
// any profile to any batch, not only contiguous runs — feed the batches in
// any order, and the set is the per-access reference's, for all four
// option combinations. The result is a function of the multiset of
// observations, not of their arrival.
func TestIncrementalBatchOrderShuffleInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	seen := difftest.Cases{}
	for trial := 0; trial < 60; trial++ {
		opt := pmc.Options{AllowSelfPairs: trial&1 == 0, SkipValueFilter: trial&2 != 0}
		profiles := difftest.GenCorpus(rng, 3+rng.Intn(9))
		seen.Add(profiles)
		want := difftest.Reference(profiles, opt)

		for s := 0; s < 3; s++ {
			batches := make([][]pmc.Profile, 1+rng.Intn(len(profiles)))
			for _, pi := range rng.Perm(len(profiles)) {
				b := rng.Intn(len(batches))
				batches[b] = append(batches[b], profiles[pi])
			}
			inc := pmc.NewIncremental(opt)
			for _, b := range batches {
				inc.AddBatch(b)
			}
			if d := difftest.Diff(want, inc.Set()); d != "" {
				t.Fatalf("trial %d %+v deal %d (%d batches): diverges from the reference:\n%s",
					trial, opt, s, len(batches), d)
			}
		}
	}
	if m := seen.Missing(); len(m) > 0 {
		t.Fatalf("the corpora never contained: %v", m)
	}
}

// repeated returns the profiles with every access (and its df mark)
// performed times times.
func repeated(profiles []pmc.Profile, times int) []pmc.Profile {
	out := make([]pmc.Profile, len(profiles))
	for i := range profiles {
		p := &profiles[i]
		var accs trace.Block
		df := make(map[int]bool)
		for ai := 0; ai < p.Accesses.Len(); ai++ {
			for r := 0; r < times; r++ {
				if p.DFLeader[ai] {
					df[accs.Len()] = true
				}
				a := p.Accesses.At(ai)
				accs.Record(a.Thread, a.Ins, a.Kind, a.Addr, a.Size, a.Val, a.Atomic, a.Marked, a.Stack, a.RCU, a.Locks)
			}
		}
		out[i] = pmc.Profile{TestID: p.TestID, Accesses: accs, DFLeader: df}
	}
	return out
}

// TestIdentifyWorkScalesWithKeys gates the property the keyed engine
// exists for: identification costs what the distinct keys cost, not what
// the accesses cost. Performing every access of a corpus eight times over
// leaves the entry keys alone and multiplies every pair count by 64, and
// the whole identification allocates what the ×1 run allocates, give or
// take a constant — a per-access engine's allocations grow with the
// accesses.
func TestIdentifyWorkScalesWithKeys(t *testing.T) {
	x1 := difftest.GenCorpus(rand.New(rand.NewSource(8)), 48)
	x8 := repeated(x1, 8)
	opt := pmc.DefaultOptions()
	one, eight := pmc.Identify(x1, opt), pmc.Identify(x8, opt)
	if one.Len() == 0 || eight.Len() != one.Len() || eight.TotalCombinations != 64*one.TotalCombinations {
		t.Fatalf("×8: %d entries / %d combinations, want %d / %d",
			eight.Len(), eight.TotalCombinations, one.Len(), 64*one.TotalCombinations)
	}
	for key, e := range one.Entries {
		if e8 := eight.Entries[key]; e8 == nil || e8.PairCount != 64*e.PairCount {
			t.Fatalf("×8 entry %v: %+v, want pair count %d", key, e8, 64*e.PairCount)
		}
	}
	a1 := testing.AllocsPerRun(5, func() { pmc.Identify(x1, opt) })
	a8 := testing.AllocsPerRun(5, func() { pmc.Identify(x8, opt) })
	t.Logf("allocs: ×1 %.0f, ×8 %.0f (%d entries)", a1, a8, one.Len())
	if a8 > a1+16 {
		t.Errorf("identification of the ×8 corpus allocates %.0f, the ×1 corpus %.0f: work grows with accesses, not keys", a8, a1)
	}
}
