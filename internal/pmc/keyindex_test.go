package pmc

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// indexOf builds a keyIndex holding the keys, one observation each.
func indexOf(keys []accessKey) *keyIndex {
	ix := newKeyIndex()
	for i, k := range keys {
		ix.observe(k, i)
	}
	return &ix
}

// sortKeys puts keys in one total order (keyLess, then df), so two
// collections of them compare with DeepEqual.
func sortKeys(keys []accessKey) []accessKey {
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Key != b.Key {
			return keyLess(a.Key, b.Key)
		}
		return !a.df && b.df
	})
	return keys
}

// collectOverlapping drains an overlapping query, canonically sorted.
func collectOverlapping(ix *keyIndex, addr, end uint64) []accessKey {
	var out []accessKey
	ix.overlapping(addr, end, func(o *keyObs) { out = append(out, o.accessKey) })
	return sortKeys(out)
}

// bruteOverlapping is the O(n) oracle: every key whose [addr, end) range
// intersects the query's.
func bruteOverlapping(keys []accessKey, addr, end uint64) []accessKey {
	var out []accessKey
	for _, k := range keys {
		if k.Addr < end && addr < k.end() {
			out = append(out, k)
		}
	}
	return sortKeys(out)
}

func keyAt(addr uint64, size uint8, val uint64) accessKey {
	return accessKey{Key: Key{Ins: 1, Addr: addr, Size: size, Val: val}}
}

// TestIndexAgainstBruteForce cross-checks the start-address buckets against
// an O(n) scan on random key sets, and the observation bookkeeping with it:
// repeated keys fold into one record with a test-sorted count list.
func TestIndexAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 50; round++ {
		ix := newKeyIndex()
		var keys []accessKey
		counts := make(map[accessKey]map[int]int64)
		for i := 0; i < 120; i++ {
			k := keyAt(0x100+uint64(rng.Intn(64)), uint8(rng.Intn(8)+1), uint64(rng.Intn(3)))
			test := rng.Intn(6) // any order, with repeats
			ix.observe(k, test)
			if counts[k] == nil {
				counts[k] = make(map[int]int64)
				keys = append(keys, k)
			}
			counts[k][test]++
		}
		if len(ix.byKey) != len(keys) || len(ix.dirty) != len(keys) {
			t.Fatalf("round %d: %d records, %d dirty, want %d distinct keys", round, len(ix.byKey), len(ix.dirty), len(keys))
		}
		for k, want := range counts {
			o := ix.byKey[k.packed()]
			var total int64
			for i, tc := range o.tests {
				if i > 0 && o.tests[i-1].test >= tc.test {
					t.Fatalf("round %d: test list not strictly ascending: %v", round, o.tests)
				}
				if want[tc.test] != tc.n {
					t.Fatalf("round %d: key %v test %d counted %d times, want %d", round, k, tc.test, tc.n, want[tc.test])
				}
				total += tc.n
			}
			if len(o.tests) != len(want) || o.total != total {
				t.Fatalf("round %d: key %v: %d tests total %d, want %d tests summing to %d", round, k, len(o.tests), o.total, len(want), total)
			}
		}
		for q := 0; q < 40; q++ {
			addr := 0x100 - maxAccessSize + uint64(rng.Intn(80))
			end := addr + uint64(1+rng.Intn(maxAccessSize))
			if got, want := collectOverlapping(&ix, addr, end), bruteOverlapping(keys, addr, end); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d query [%#x,%#x): got %v, want %v", round, addr, end, got, want)
			}
		}
	}
}

// TestIndexLowAddressUnderflowGuard exercises the probe window's lower
// bound at addresses below maxAccessSize, where the naive
// addr-maxAccessSize+1 arithmetic would wrap around to 2^64-ε and skip
// every bucket. Queries at addresses 0..maxAccessSize must still find keys
// starting at address 0.
func TestIndexLowAddressUnderflowGuard(t *testing.T) {
	var keys []accessKey
	for addr := uint64(0); addr <= 2*maxAccessSize; addr++ {
		keys = append(keys, keyAt(addr, uint8(1+addr%maxAccessSize), addr+1))
	}
	ix := indexOf(keys)
	for addr := uint64(0); addr <= 2*maxAccessSize; addr++ {
		for size := uint64(1); size <= maxAccessSize; size++ {
			got, want := collectOverlapping(ix, addr, addr+size), bruteOverlapping(keys, addr, addr+size)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("query [%d,%d): got %v, want %v", addr, addr+size, got, want)
			}
		}
	}
}

// TestIndexAdjacencyExcluded pins the half-open boundary: a key starting
// exactly at the query's end address is adjacent, not overlapping, and a
// key ending exactly at the query's start likewise.
func TestIndexAdjacencyExcluded(t *testing.T) {
	ix := indexOf([]accessKey{
		keyAt(0x108, 4, 1), // starts at end
		keyAt(0x0F8, 8, 2), // ends at addr
		keyAt(0x107, 1, 3), // last byte of the query
		keyAt(0x0F9, 8, 4), // first byte of the query
	})
	got := collectOverlapping(ix, 0x100, 0x108)
	if len(got) != 2 || got[0].Val != 4 || got[1].Val != 3 {
		t.Fatalf("query [0x100,0x108): got %v, want exactly the keys with values 4 and 3", got)
	}
}

// TestIndexStraddlingWritesCrossBuckets checks that an 8-byte key whose
// range straddles into a query's bucket from below is found even though
// its own start address lies in an earlier bucket — the reason the probe
// window opens maxAccessSize-1 below the query.
func TestIndexStraddlingWritesCrossBuckets(t *testing.T) {
	var keys []accessKey
	for off := uint64(1); off <= maxAccessSize; off++ {
		keys = append(keys, keyAt(0x200-off, 8, off))
	}
	ix := indexOf(keys)
	got, want := collectOverlapping(ix, 0x200, 0x201), bruteOverlapping(keys, 0x200, 0x201)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("straddling probe: got %v, want %v", got, want)
	}
	// Every key except the one starting at 0x200-8 (which ends at 0x200)
	// covers byte 0x200.
	if len(got) != maxAccessSize-1 {
		t.Fatalf("got %d straddling keys, want %d", len(got), maxAccessSize-1)
	}
}
