package lazyrand

import (
	"math/rand"
	"testing"
)

// sameStream draws from a math/rand generator freshly built for seed and
// from got (already seeded with it) in lockstep, cycling through the three
// entry points the schedulers and the fuzzer use.
func sameStream(t *testing.T, seed int64, got *rand.Rand, draws int) {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	for i := 0; i < draws; i++ {
		var w, g uint64
		switch i % 3 {
		case 0:
			w, g = uint64(want.Int63()), uint64(got.Int63())
		case 1:
			w, g = want.Uint64(), got.Uint64()
		default:
			n := i%1000 + 1
			w, g = uint64(want.Intn(n)), uint64(got.Intn(n))
		}
		if w != g {
			t.Fatalf("seed %d draw %d: got %#x, math/rand gives %#x", seed, i, g, w)
		}
	}
}

// TestSourceEqualsMathRand: one Source reseeded in place from seed to seed
// yields rand.NewSource's stream for each, well past the 607-word wrap.
func TestSourceEqualsMathRand(t *testing.T) {
	r := New(99)
	r.Intn(10) // leave state behind for the first reseed to discard
	for _, seed := range []int64{0, 1, -5, 1<<31 - 1, 1 << 31, 89482311, 1<<62 + 12345, -1 << 63} {
		r.Seed(seed)
		sameStream(t, seed, r, 2500)
	}
}

// TestMulmodEqualsModulo: the folded reduction is the remainder, for
// products near every boundary of the two folds and the subtraction.
func TestMulmodEqualsModulo(t *testing.T) {
	edges := []uint64{0, 1, 2, lehmerA, lehmerA2, 1 << 30, lehmerM - 2, lehmerM - 1}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		edges = append(edges, uint64(rng.Int63n(lehmerM)))
	}
	for _, a := range edges {
		for _, b := range edges[:40] {
			if got, want := mulmod(a, b), a*b%lehmerM; got != want {
				t.Fatalf("mulmod(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// TestSeedAllocatesNothing: reseeding is what a trial does; it must be free.
func TestSeedAllocatesNothing(t *testing.T) {
	r := New(1)
	if n := testing.AllocsPerRun(100, func() { r.Seed(7); r.Intn(4) }); n != 0 {
		t.Fatalf("Seed+Intn allocates %.0f times", n)
	}
}

func FuzzLazySource(f *testing.F) {
	f.Add(int64(0), uint16(700))
	f.Add(int64(-1<<63), uint16(1300))
	f.Add(int64(1<<31-1), uint16(5))
	r := New(0)
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		r.Seed(seed)
		sameStream(t, seed, r, int(draws)%3000)
	})
}

func BenchmarkSeedAndDraw(b *testing.B) {
	b.Run("lazy", func(b *testing.B) {
		r := New(0)
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
			for k := 0; k < 30; k++ {
				r.Intn(4)
			}
		}
	})
	b.Run("mathrand", func(b *testing.B) {
		r := rand.New(rand.NewSource(0))
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
			for k := 0; k < 30; k++ {
				r.Intn(4)
			}
		}
	})
}
