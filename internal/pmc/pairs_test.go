package pmc

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestAddPairBoundedKSmallest is the property test for Entry.addPair: after
// feeding any stream of pairs in any order, the retained list must equal
// the canonically sorted stream truncated to MaxPairsPerPMC — the exact
// k-smallest, with multiplicity — and, through Set.Add, PairCount must
// stay the exact uncapped stream length. The k-smallest (rather than
// first-k) bound is what makes identification order-independent, so this
// invariant underpins the whole incremental engine.
func TestAddPairBoundedKSmallest(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	key := PMC{Write: Key{Ins: 1, Addr: 0x100, Size: 8, Val: 1},
		Read: Key{Ins: 2, Addr: 0x100, Size: 8, Val: 2}}
	for trial := 0; trial < 200; trial++ {
		// Stream lengths around the cap matter most: under, at, and far
		// over MaxPairsPerPMC, from pools narrow enough to force duplicates.
		n := rng.Intn(4 * MaxPairsPerPMC)
		pool := 1 + rng.Intn(12)
		stream := make([]Pair, n)
		for i := range stream {
			stream[i] = Pair{Writer: rng.Intn(pool), Reader: rng.Intn(pool)}
		}

		var e Entry
		set := NewSet()
		for _, pr := range stream {
			e.addPair(pr)
			set.Add(key, pr)
		}

		want := append([]Pair(nil), stream...)
		sort.SliceStable(want, func(i, j int) bool { return pairLess(want[i], want[j]) })
		if len(want) > MaxPairsPerPMC {
			want = want[:MaxPairsPerPMC]
		}
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(e.Pairs, want) {
			t.Fatalf("trial %d: addPair retained %v, want k-smallest %v (stream %v)",
				trial, e.Pairs, want, stream)
		}
		if n > 0 {
			entry := set.Entries[key]
			if entry.PairCount != int64(n) {
				t.Fatalf("trial %d: PairCount %d, want exact stream length %d", trial, entry.PairCount, n)
			}
			if !reflect.DeepEqual(entry.Pairs, want) {
				t.Fatalf("trial %d: Set.Add retained %v, want %v", trial, entry.Pairs, want)
			}
			if set.TotalCombinations != int64(n) {
				t.Fatalf("trial %d: TotalCombinations %d, want %d", trial, set.TotalCombinations, n)
			}
		}
	}
}
