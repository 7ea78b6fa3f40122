package difftest

import (
	"math/rand"
	"testing"

	"snowboard/internal/pmc"
)

// allOptions is the four Options combinations every equivalence is held
// over.
var allOptions = []pmc.Options{
	{AllowSelfPairs: true},
	{},
	{AllowSelfPairs: true, SkipValueFilter: true},
	{SkipValueFilter: true},
}

// TestIncrementalEquivalence is the differential harness proper: for many
// seeded corpora and all four option combinations, the keyed engine —
// one-shot, and fed the corpus in k batches for k spanning one batch, a
// few, and one-profile-per-batch, in corpus order and in shuffled batch
// orders — must produce a set deep-equal (entries, DFLeader, bounded pair
// lists, pair counts, TotalCombinations) to the per-access Reference. The
// corpora must contain every Case, or the equivalence is vacuous.
func TestIncrementalEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trials := 10
	if testing.Short() {
		trials = 4
	}
	seen := Cases{}
	for trial := 0; trial < trials; trial++ {
		profiles := GenCorpus(rng, 6+rng.Intn(10))
		seen.Add(profiles)
		for _, opt := range allOptions {
			want, got := Reference(profiles, opt), pmc.Identify(profiles, opt)
			if d := Diff(want, got); d != "" {
				t.Fatalf("trial %d %+v: one-shot Identify diverges from the reference:\n%s", trial, opt, d)
			}

			for _, k := range []int{1, 2, 7, len(profiles)} {
				batches := Partition(profiles, k)
				orders := [][]int{nil, rng.Perm(len(batches)), rng.Perm(len(batches))}
				for i := range batches {
					orders[0] = append(orders[0], i) // corpus order first
				}
				for _, order := range orders {
					inc := pmc.NewIncremental(opt)
					for _, i := range order {
						inc.AddBatch(batches[i])
					}
					if d := Diff(want, inc.Set()); d != "" {
						t.Fatalf("trial %d %+v k=%d order %v: incremental diverges from the reference:\n%s",
							trial, opt, k, order, d)
					}
				}
			}
		}
	}
	if m := seen.Missing(); len(m) > 0 {
		t.Fatalf("GenCorpus never emitted: %v", m)
	}
}

// TestCaseSeedHasEveryCase pins the fuzz targets' starting point: the
// FromBytes corpus of CaseSeed contains every case, and the engine agrees
// with the reference on it.
func TestCaseSeedHasEveryCase(t *testing.T) {
	profiles := FromBytes(CaseSeed())
	seen := Cases{}
	seen.Add(profiles)
	if m := seen.Missing(); len(m) > 0 {
		t.Fatalf("CaseSeed corpus lacks: %v", m)
	}
	for _, opt := range allOptions {
		if d := Diff(Reference(profiles, opt), pmc.Identify(profiles, opt)); d != "" {
			t.Fatalf("%+v: Identify diverges from the reference on CaseSeed:\n%s", opt, d)
		}
	}
}

// TestPartitionCoversCorpus pins the partition contract the harness rests
// on: batches are contiguous, non-overlapping, and concatenate back to the
// input for every k.
func TestPartitionCoversCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	profiles := GenCorpus(rng, 11)
	for k := -1; k <= len(profiles)+2; k++ {
		batches := Partition(profiles, k)
		n := 0
		for _, b := range batches {
			for i := range b {
				if b[i].TestID != profiles[n].TestID {
					t.Fatalf("k=%d: batch element %d is profile %d, want %d", k, n, b[i].TestID, profiles[n].TestID)
				}
				n++
			}
		}
		if n != len(profiles) {
			t.Fatalf("k=%d: partition covers %d profiles, want %d", k, n, len(profiles))
		}
		if k >= 1 && k <= len(profiles) && len(batches) != k {
			t.Fatalf("k=%d: got %d batches", k, len(batches))
		}
	}
}

// TestDiffDetectsDivergence is the harness's self-test: Diff must return
// empty only for deep-equal sets and name the divergence otherwise —
// including pair-count-only and DFLeader-only differences that coarser
// comparisons would miss.
func TestDiffDetectsDivergence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	profiles := GenCorpus(rng, 8)
	a := Reference(profiles, pmc.DefaultOptions())
	b := pmc.Identify(profiles, pmc.DefaultOptions())
	if d := Diff(a, b); d != "" {
		t.Fatalf("equal sets diff non-empty:\n%s", d)
	}
	// Perturb one entry's pair count only.
	for _, e := range b.Entries {
		e.PairCount++
		b.TotalCombinations++
		break
	}
	if Diff(a, b) == "" {
		t.Fatal("pair-count divergence not detected")
	}
}
