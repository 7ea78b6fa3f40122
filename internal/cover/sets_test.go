package cover

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"snowboard/internal/trace"
)

// The map accumulators Coverage and Segments were before they became flat
// tables, kept as their model: addCounts is Merge and ImportSegments' sum,
// a batch of distinct units with one hit each is a trial's Fold.

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

// exportModel is Segments.Export of a map model.
func exportModel(m map[Segment]int) []SegmentCount {
	out := make([]SegmentCount, 0, len(m))
	for seg, n := range m {
		out = append(out, SegmentCount{Seg: seg, N: n})
	}
	sort.Slice(out, func(i, j int) bool { return segLess(out[i].Seg, out[j].Seg) })
	return out
}

// pairsOf lists c's pairs as a model's key set.
func pairsOf(c *Coverage) map[Pair]int {
	out := make(map[Pair]int)
	for k := range c.set.All() {
		out[Pair{First: trace.Ins(k >> 32), Second: trace.Ins(k)}] = 1
	}
	return out
}

// keySet is a model's key set with the counts dropped, Coverage's view.
func keySet(m map[Pair]int) map[Pair]int {
	out := make(map[Pair]int, len(m))
	for p := range m {
		out[p] = 1
	}
	return out
}

// inverse returns the multiplicative inverse of odd c modulo 2⁶⁴ (Newton's
// iteration; each step doubles the correct low bits, from 3).
func inverse(c uint64) uint64 {
	x := c
	for i := 0; i < 5; i++ {
		x *= 2 - c*x
	}
	return x
}

// collidingPair returns the i-th (i < 2⁵⁸) of a family of pair keys that
// all start probing at the same slot of a trace.Shadow of any size: the
// Shadow hashes key·0x9E3779B97F4A7C15 and keeps its top bits, and
// key·0x9E3779B97F4A7C15 is 0x2A<<58 | i for every member.
func collidingPair(i uint64) uint64 { return (0x2A<<58 | i) * inverse(0x9E3779B97F4A7C15) }

// collidingSegment is the same for Segments: every member has first as
// its first communication and hashes (segHash) to 0x15<<58 | i.
func collidingSegment(first Comm, i uint64) Segment {
	a := uint64(first.Write)<<32 | uint64(first.Read)
	b := (0x15<<58|i)*inverse(0xBF58476D1CE4E5B9) ^ a*0x9E3779B97F4A7C15
	return Segment{First: first, Second: Comm{Write: trace.Ins(b >> 32), Read: trace.Ins(b)}}
}

// setUniverse is the 16 pair keys and 16 segments an operation picks from:
// a few around both ends of the instruction range, and the rest members of
// a colliding family.
func setUniverse() (pairs []uint64, segs []Segment) {
	ends := []trace.Ins{0, 1, 0x7FFFFFFF, 0xFFFFFFFF}
	for i := 0; i < 8; i++ {
		pairs = append(pairs, pairKey(ends[i%4], ends[i/2%4]))
		segs = append(segs, Segment{First: Comm{Write: ends[i%4], Read: ends[i/4]}, Second: Comm{Write: ends[i/2%4]}})
	}
	for i := uint64(0); i < 8; i++ {
		pairs = append(pairs, collidingPair(i))
		segs = append(segs, collidingSegment(Comm{Write: 7, Read: 9}, i))
	}
	return pairs, segs
}

// checkSetOps runs the operations data encodes, two bytes each, on two
// Coverage and two Segments accumulators and on their map models, and
// fails on the first answer or state where they differ. The first byte's
// low bit picks the accumulator, the rest the operation; the second byte
// is its argument.
func checkSetOps(t *testing.T, data []byte) {
	t.Helper()
	upairs, usegs := setUniverse()
	covs := [2]*Coverage{New(), New()}
	segs := [2]*Segments{NewSegments(), NewSegments()}
	pmodel := [2]map[Pair]int{{}, {}}
	smodel := [2]map[Segment]int{{}, {}}
	var w Walker
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		a, b := op&1, 1-op&1
		half := int(op>>1&1) * 8
		switch op >> 2 % 6 {
		case 0, 1: // one trial's distinct pairs and segments, folded
			w.pairs, w.segs = w.pairs[:0], w.segs[:0]
			batchP, batchS := map[Pair]int{}, map[Segment]int{}
			for j := 0; j < 8; j++ {
				if arg>>j&1 != 0 {
					k := upairs[half+j]
					w.pairs = append(w.pairs, k)
					batchP[Pair{First: trace.Ins(k >> 32), Second: trace.Ins(k)}] = 1
					w.segs = append(w.segs, usegs[(half+j+int(op>>4))%16])
					batchS[w.segs[len(w.segs)-1]] = 1
				}
			}
			gotP, gotS := w.Fold(covs[a], segs[a])
			if wantP, wantS := addCounts(pmodel[a], batchP), addCounts(smodel[a], batchS); gotP != wantP || gotS != wantS {
				t.Fatalf("op %d: Fold fresh (%d pairs, %d segments), model (%d, %d)", i/2, gotP, gotS, wantP, wantS)
			}
		case 2: // a batch of new keys, growing the tables
			w.pairs, w.segs = w.pairs[:0], w.segs[:0]
			batchP, batchS := map[Pair]int{}, map[Segment]int{}
			for j := 0; j < 24; j++ {
				n := uint64(i)<<8 | uint64(j)
				k := pairKey(trace.Ins(n*0x9E37), trace.Ins(arg))
				seg := Segment{First: Comm{Write: trace.Ins(n), Read: trace.Ins(arg)}, Second: Comm{Read: trace.Ins(j)}}
				if j%3 == 0 {
					k, seg = collidingPair(8+n), collidingSegment(Comm{Write: 7, Read: 9}, 8+n)
				}
				w.pairs = append(w.pairs, k)
				batchP[Pair{First: trace.Ins(k >> 32), Second: trace.Ins(k)}] = 1
				w.segs = append(w.segs, seg)
				batchS[seg] = 1
			}
			gotP, gotS := w.Fold(covs[a], segs[a])
			if wantP, wantS := addCounts(pmodel[a], batchP), addCounts(smodel[a], batchS); gotP != wantP || gotS != wantS {
				t.Fatalf("op %d: growing Fold fresh (%d pairs, %d segments), model (%d, %d)", i/2, gotP, gotS, wantP, wantS)
			}
		case 3: // merge the other accumulator in
			gotP, gotS := covs[a].Merge(covs[b]), segs[a].Merge(segs[b])
			if wantP, wantS := addCounts(pmodel[a], pmodel[b]), addCounts(smodel[a], smodel[b]); gotP != wantP || gotS != wantS {
				t.Fatalf("op %d: Merge fresh (%d pairs, %d segments), model (%d, %d)", i/2, gotP, gotS, wantP, wantS)
			}
		case 4: // the export/import round trip a feedback checkpoint makes
			segs[a] = ImportSegments(segs[a].Export())
		default: // import arbitrary entries: repeats (the later holds) and zero counts
			var entries []SegmentCount
			smodel[a] = map[Segment]int{}
			for j := 0; j < int(arg%8); j++ {
				e := SegmentCount{Seg: usegs[(int(arg)+3*(j%3))%16], N: int(arg>>3+byte(j)) % 3}
				entries = append(entries, e)
				smodel[a][e.Seg] = e.N
			}
			segs[a] = ImportSegments(entries)
		}
		for k := range covs {
			if covs[k].Len() != len(pmodel[k]) || segs[k].Len() != len(smodel[k]) {
				t.Fatalf("op %d: accumulator %d holds %d pairs and %d segments, model %d and %d",
					i/2, k, covs[k].Len(), segs[k].Len(), len(pmodel[k]), len(smodel[k]))
			}
		}
	}
	for k := range covs {
		if got, want := pairsOf(covs[k]), keySet(pmodel[k]); !reflect.DeepEqual(got, want) {
			t.Fatalf("accumulator %d: pairs %v, model %v", k, got, want)
		}
		if got, want := segs[k].Export(), exportModel(smodel[k]); !reflect.DeepEqual(got, want) {
			t.Fatalf("accumulator %d: segments %v, model %v", k, got, want)
		}
	}
}

// TestCollidingFamiliesCollide holds the premise of the forced collisions:
// each family's members start probing at one slot of every table size.
func TestCollidingFamiliesCollide(t *testing.T) {
	for shift := uint(64 - 6); shift > 64-20; shift-- {
		for i := uint64(1); i < 64; i++ {
			if collidingPair(i)*0x9E3779B97F4A7C15>>shift != collidingPair(0)*0x9E3779B97F4A7C15>>shift {
				t.Fatalf("pair family member %d leaves the home slot at shift %d", i, shift)
			}
			first := Comm{Write: 7, Read: 9}
			if segHash(collidingSegment(first, i))>>shift != segHash(collidingSegment(first, 0))>>shift {
				t.Fatalf("segment family member %d leaves the home slot at shift %d", i, shift)
			}
		}
	}
}

func TestCoverageSetsEqualMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for run := 0; run < 40; run++ {
		data := make([]byte, 2*(1+rng.Intn(200)))
		rng.Read(data)
		checkSetOps(t, data)
	}
}

// FuzzCoverageSets feeds byte-encoded operation sequences — folds, growing
// folds, merges, export/import round trips and arbitrary imports — through
// the flat Coverage and Segments tables and their map models.
func FuzzCoverageSets(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0xFF, 1, 0xFF, 12, 0})                    // fold each, merge
	f.Add([]byte{2, 0xFF, 2, 0xFF, 16, 0, 8, 1, 8, 2})        // colliding halves, round trip, grow
	f.Add([]byte{20, 0x2F, 0, 0x0F, 13, 0, 20, 7, 16, 0})     // imports with repeats and zero counts
	f.Add([]byte{8, 3, 8, 4, 8, 5, 8, 6, 9, 7, 12, 0, 16, 0}) // tables through doublings
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			return
		}
		checkSetOps(t, data)
	})
}
