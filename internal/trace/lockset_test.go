package trace

import (
	"math/rand"
	"slices"
	"testing"
)

// TestHeldLocksAgainstNaive is a property test of the lockset derivation:
// random traces of three threads taking and releasing six lock words —
// nested, released in and out of acquisition order — among data accesses,
// stack accesses, marked accesses and lock-word reads. Every access's
// derived set must equal a naive per-thread set of the words its thread
// acquired and has not released, and SharesLock on any two accesses' sets
// must equal the naive sets' intersection being non-empty.
func TestHeldLocksAgainstNaive(t *testing.T) {
	const threads, locks = 3, 6
	var outOfOrder, deep int
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		held := make([][]uint64, threads) // per thread, in acquisition order
		var tr Trace
		var want [][]uint64
		for i := 0; i < 200; i++ {
			th := rng.Intn(threads)
			l := 0x800 + 8*uint64(rng.Intn(locks))
			a := Access{Thread: th, Ins: Ins(rng.Intn(4)), Addr: 0x1000 + uint64(rng.Intn(64)), Size: 8, Val: uint64(rng.Intn(3))}
			switch op := rng.Intn(10); {
			case op < 3 && !slices.Contains(held[th], l): // acquire
				a.Kind, a.Atomic, a.Addr, a.Val = Write, true, l, uint64(th)+1
				held[th] = append(held[th], l)
				if len(held[th]) > 2 {
					deep++
				}
			case op < 6 && len(held[th]) > 0: // release, of the latest lock or of any
				k := rng.Intn(len(held[th]))
				if k != len(held[th])-1 {
					outOfOrder++
				}
				a.Kind, a.Atomic, a.Addr, a.Val = Write, true, held[th][k], 0
				held[th] = slices.Delete(held[th], k, k+1)
			case op == 6: // a lock-word read takes nothing
				a.Kind, a.Atomic, a.Addr = Read, true, l
			default:
				a.Kind = Kind(rng.Intn(2))
				a.Marked, a.Stack = rng.Intn(4) == 0, rng.Intn(4) == 0
			}
			tr.Record(a.Ins, a.Addr, a.Val, a.Meta())
			set := slices.Sorted(slices.Values(held[th]))
			want = append(want, set)
		}
		sets := HeldLocks(&tr)
		if len(sets) != tr.Len() {
			t.Fatalf("seed %d: %d sets for %d accesses", seed, len(sets), tr.Len())
		}
		for i, set := range sets {
			if !slices.Equal(set, want[i]) {
				t.Fatalf("seed %d: access %d (%v) derived under %#x, held %#x", seed, i, tr.At(i), set, want[i])
			}
		}
		for k := 0; k < 100; k++ {
			i, j := rng.Intn(len(sets)), rng.Intn(len(sets))
			naive := slices.ContainsFunc(want[i], func(l uint64) bool { return slices.Contains(want[j], l) })
			if got := SharesLock(sets[i], sets[j]); got != naive {
				t.Fatalf("seed %d: SharesLock(%#x, %#x) = %v", seed, sets[i], sets[j], got)
			}
		}
	}
	if outOfOrder == 0 || deep == 0 {
		t.Fatalf("the traces missed a case: %d releases out of order, %d acquisitions past two deep", outOfOrder, deep)
	}
}
