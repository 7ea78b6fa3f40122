package difftest

import (
	"math/rand"
	"testing"

	"snowboard/internal/pmc"
)

// TestIncrementalEquivalence is the differential harness proper: for many
// seeded corpora and option variants, feeding the corpus to an Incremental
// in k batches — for k spanning one batch, a few, and one-profile-per-
// batch, in corpus order and in shuffled batch orders, at worker counts 1,
// 2, and 8 — must produce a set deep-equal (entries, DFLeader, bounded
// pair lists, pair counts, TotalCombinations) to a one-shot Identify over
// the whole corpus. Run under -race, this also exercises the parallel
// delta scans for data races.
func TestIncrementalEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trials := 10 // full matrix per trial: 4 partitions × (3 worker counts + 2 shuffles)
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		opt := pmc.DefaultOptions()
		if trial%3 == 1 {
			opt.AllowSelfPairs = false
		}
		if trial%5 == 2 {
			opt.SkipValueFilter = true
		}
		profiles := GenCorpus(rng, 6+rng.Intn(10))
		want := pmc.Identify(profiles, opt)

		for _, k := range []int{1, 2, 7, len(profiles)} {
			batches := Partition(profiles, k)

			// Corpus order, at several worker counts.
			for _, workers := range []int{1, 2, 8} {
				inc := pmc.NewIncremental(opt)
				for _, b := range batches {
					inc.AddBatchParallel(b, workers)
				}
				if d := Diff(want, inc.Set()); d != "" {
					t.Fatalf("trial %d k=%d workers=%d: incremental diverges from one-shot Identify:\n%s",
						trial, k, workers, d)
				}
				if inc.Profiles() != len(profiles) || inc.Batches() != len(batches) {
					t.Fatalf("trial %d k=%d: accounting: %d profiles in %d batches, want %d in %d",
						trial, k, inc.Profiles(), inc.Batches(), len(profiles), len(batches))
				}
			}

			// Shuffled batch orders: identification is order-independent, so
			// any arrival permutation must land on the same set.
			for s := 0; s < 2; s++ {
				order := rng.Perm(len(batches))
				inc := pmc.NewIncremental(opt)
				for _, i := range order {
					inc.AddBatch(batches[i])
				}
				if d := Diff(want, inc.Set()); d != "" {
					t.Fatalf("trial %d k=%d order %v: shuffled batch order diverges:\n%s",
						trial, k, order, d)
				}
			}
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
	a := pmc.Identify(profiles, pmc.DefaultOptions())
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
