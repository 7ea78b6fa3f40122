package cover

import (
	"math/rand"
	"reflect"
	"testing"

	"snowboard/internal/trace"
)

// The two per-byte-map walks the fused Walker replaced, kept as the
// differential oracle: one map[uint64]refLast each, re-walking the trace.

type refLast struct {
	ins    trace.Ins
	thread int
	write  bool
}

func refPairs(tr *trace.Trace) map[Pair]int {
	last := make(map[uint64]refLast)
	local := make(map[Pair]int)
	for i, n := 0, tr.Len(); i < n; i++ {
		if tr.StackAt(i) || tr.AtomicAt(i) {
			continue
		}
		ins, thread, isWrite := tr.InsAt(i), tr.ThreadAt(i), tr.IsWriteAt(i)
		for b := tr.AddrAt(i); b < tr.EndAt(i); b++ {
			if prev, ok := last[b]; ok && prev.thread != thread && (prev.write || isWrite) {
				local[Pair{First: prev.ins, Second: ins}] = 1
			}
			last[b] = refLast{ins: ins, thread: thread, write: isWrite}
		}
	}
	return local
}

func refSegments(tr *trace.Trace) map[Segment]int {
	last := make(map[uint64]refLast)
	seen := make(map[Segment]int)
	var prev Comm
	havePrev := false
	for i, n := 0, tr.Len(); i < n; i++ {
		if tr.StackAt(i) || tr.AtomicAt(i) {
			continue
		}
		ins, thread, isWrite := tr.InsAt(i), tr.ThreadAt(i), tr.IsWriteAt(i)
		comm := Comm{}
		haveComm := false
		for b := tr.AddrAt(i); b < tr.EndAt(i); b++ {
			if p, ok := last[b]; ok && p.thread != thread && (p.write || isWrite) && !haveComm {
				comm = Comm{Write: trace.RegionOf(p.ins), Read: trace.RegionOf(ins)}
				haveComm = true
			}
			last[b] = refLast{ins: ins, thread: thread, write: isWrite}
		}
		if !haveComm || (havePrev && comm == prev) {
			continue
		}
		if havePrev {
			seen[Segment{First: prev, Second: comm}] = 1
		}
		prev, havePrev = comm, true
	}
	return seen
}

// randTrace builds a trace of n accesses by up to four threads over a few
// adjacent words (sizes 1–8, so accesses straddle and partially overlap),
// with the occasional stack/atomic access and, when far is set, a spread
// wide enough to grow the shadow table mid-walk.
func randTrace(rng *rand.Rand, n int, far bool) *trace.Trace {
	sites := []trace.Ins{cvW, cvR, cvX, segAW, segBR, segCW, segDR, segA2, segB2}
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		a := trace.Access{
			Thread: rng.Intn(4),
			Kind:   trace.Kind(rng.Intn(2)),
			Ins:    sites[rng.Intn(len(sites))],
			Addr:   0x1000 + uint64(rng.Intn(40)),
			Size:   uint8(1 + rng.Intn(8)),
			Stack:  rng.Intn(16) == 0,
			Atomic: rng.Intn(16) == 0,
		}
		if far && rng.Intn(2) == 0 {
			a.Addr = 0x8000 + uint64(rng.Intn(4096))
		}
		tr.Append(a)
	}
	return tr
}

// TestFusedWalkEqualsReference: the one-pass walk feeding both
// accumulators must agree with the two retained per-byte-map walks — per
// trace on the fresh counts, at the end on the accumulated state — and so
// must the standalone AddTrace methods.
func TestFusedWalkEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var w Walker
	fusedC, fusedS := New(), NewSegments()
	soloC, soloS := New(), NewSegments()
	refC, refS := New(), NewSegments()
	for iter := 0; iter < 400; iter++ {
		tr := randTrace(rng, 1+rng.Intn(120), iter%20 == 0)
		wantP, wantS := addCounts(refC.pairs, refPairs(tr)), addCounts(refS.segs, refSegments(tr))
		gotP, gotS := w.AddTrace(tr, fusedC, fusedS)
		if gotP != wantP || gotS != wantS {
			t.Fatalf("iter %d: fused fresh (%d pairs, %d segments), reference (%d, %d)", iter, gotP, gotS, wantP, wantS)
		}
		if p, s := soloC.AddTrace(tr), soloS.AddTrace(tr); p != wantP || s != wantS {
			t.Fatalf("iter %d: standalone fresh (%d pairs, %d segments), reference (%d, %d)", iter, p, s, wantP, wantS)
		}
		// Either accumulator may be nil.
		if p, s := w.AddTrace(tr, nil, nil); p != 0 || s != 0 {
			t.Fatalf("iter %d: nil accumulators reported (%d, %d)", iter, p, s)
		}
	}
	if refS.Len() == 0 || refC.Len() == 0 {
		t.Fatal("generator produced no communication")
	}
	for name, got := range map[string]*Segments{"fused": fusedS, "standalone": soloS} {
		if !reflect.DeepEqual(got.Export(), refS.Export()) {
			t.Fatalf("%s segments differ from reference", name)
		}
	}
	for name, got := range map[string]*Coverage{"fused": fusedC, "standalone": soloC} {
		if !reflect.DeepEqual(got.pairs, refC.pairs) {
			t.Fatalf("%s pairs differ from reference", name)
		}
	}
}
