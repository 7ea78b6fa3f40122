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

// randTrace builds a trace of n accesses by four threads — ids 0, 1, 2 and
// 32, the last exactly the width of the view's thread mask — with sizes 1–8, so
// accesses straddle and partially overlap, over the regions the view's
// private-word skip must get right: a few adjacent words every thread
// reaches (where the occasional stack or atomic access lands too); words
// only one thread touches, straddled by nobody else; per thread, a word
// only it touches followed by one every thread does; and, when far is set,
// a spread wide enough to grow the tables mid-walk. Half of the accesses are
// then made the aligned 8-byte access of their word, as a kernel's nearly all
// are, so words gather whole-word history before a partial access splits them.
func randTrace(rng *rand.Rand, n int, far bool) *trace.Trace {
	sites := []trace.Ins{cvW, cvR, cvX, segAW, segBR, segCW, segDR, segA2, segB2}
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		slot := uint64(rng.Intn(4))
		a := trace.Access{
			Thread: []int{0, 1, 2, 32}[slot],
			Kind:   trace.Kind(rng.Intn(2)),
			Ins:    sites[rng.Intn(len(sites))],
			Addr:   0x1000 + uint64(rng.Intn(40)),
			Size:   uint8(1 + rng.Intn(8)),
			Stack:  rng.Intn(16) == 0,
			Atomic: rng.Intn(16) == 0,
		}
		switch region := rng.Intn(8); {
		case a.Stack || a.Atomic:
		case region == 0:
			a.Addr = 0x2000 + 0x100*slot + uint64(rng.Intn(40))
		case region == 1:
			a.Addr = 0x3000 + 0x20*slot + uint64(rng.Intn(16))
		case region == 2: // the shared word of some thread's pair
			a.Addr, a.Size = 0x3008+0x20*uint64(rng.Intn(4)), uint8(1+rng.Intn(8))
		case far && region < 6:
			a.Addr = 0x8000 + uint64(rng.Intn(4096))
		}
		if rng.Intn(2) == 0 {
			a.Addr, a.Size = a.Addr&^7, 8
		}
		tr.Record(a.Thread, a.Ins, a.Kind, a.Addr, a.Size, a.Val, a.Atomic, a.Marked, a.Stack, a.RCU, a.Locks)
	}
	return tr
}

// teeth counts, over the generated traces, the shapes the private-word skip
// and the word-granular cells have to get right; a generator that stops
// producing one has lost its teeth.
type teeth struct {
	skipped, analysed int // data accesses the view calls private / shared
	straddleOnly      int // straddling accesses over two words no second thread touches
	mixed             int // straddling accesses over one such word and one shared word
	wide              int // data accesses by thread ids past the view's mask
	stack, atomic     int // stack / lock-word accesses to words data accesses share

	// Of the analysed accesses. A word is whole until the first of them to
	// cover only part of it, split from then on.
	wholeFast       int // aligned 8-byte accesses to a word still whole
	splitAfterWhole int // partial accesses that split a word with whole-word history
	wholeAfterSplit int // aligned 8-byte accesses to a split word
	halfSplit       int // straddling accesses over one split word and one still whole
}

func (k *teeth) add(v *trace.View) {
	tr := v.Trace()
	words := func(i int) (lo, hi uint64) { return tr.AddrAt(i) >> 3, (tr.EndAt(i) - 1) >> 3 }
	owners := make(map[uint64]map[int]bool) // word → threads of its data accesses
	for i := 0; i < tr.Len(); i++ {
		if tr.StackAt(i) || tr.AtomicAt(i) {
			continue
		}
		lo, hi := words(i)
		for _, w := range []uint64{lo, hi} {
			if owners[w] == nil {
				owners[w] = make(map[int]bool)
			}
			owners[w][tr.ThreadAt(i)] = true
		}
	}
	type history struct{ whole, split bool }
	hist := make(map[uint64]*history)
	for i := 0; i < tr.Len(); i++ {
		lo, hi := words(i)
		one, other := len(owners[lo]) > 1, len(owners[hi]) > 1
		switch {
		case tr.StackAt(i):
			k.stack += btoi(one)
		case tr.AtomicAt(i):
			k.atomic += btoi(one)
		default:
			k.analysed += btoi(v.Shared(i))
			k.skipped += btoi(!v.Shared(i))
			k.wide += btoi(tr.ThreadAt(i) >= 32)
			k.straddleOnly += btoi(lo != hi && !one && !other)
			k.mixed += btoi(lo != hi && one != other)
		}
		if !v.Shared(i) {
			continue
		}
		for _, w := range []uint64{lo, hi} {
			if hist[w] == nil {
				hist[w] = &history{}
			}
		}
		if tr.AddrAt(i)&7 == 0 && tr.SizeAt(i) == 8 {
			k.wholeFast += btoi(!hist[lo].split)
			k.wholeAfterSplit += btoi(hist[lo].split)
			hist[lo].whole = true
			continue
		}
		k.halfSplit += btoi(hist[lo].split != hist[hi].split)
		for _, h := range []*history{hist[lo], hist[hi]} {
			k.splitAfterWhole += btoi(!h.split && h.whole)
			h.split = true
		}
	}
}

func (k teeth) lost() bool {
	return k.skipped == 0 || k.analysed == 0 || k.straddleOnly == 0 || k.mixed == 0 ||
		k.wide == 0 || k.stack == 0 || k.atomic == 0 ||
		k.wholeFast == 0 || k.splitAfterWhole == 0 || k.wholeAfterSplit == 0 || k.halfSplit == 0
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestFusedWalkEqualsReference: the one-pass walk feeding both
// accumulators must agree with the two retained per-byte-map walks — per
// trace on the fresh counts, at the end on the accumulated state — and so
// must the standalone AddTrace methods.
func TestFusedWalkEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var w Walker
	var v trace.View
	var k teeth
	fusedC, fusedS := New(), NewSegments()
	soloC, soloS := New(), NewSegments()
	refC, refS := map[Pair]int{}, map[Segment]int{}
	for iter := 0; iter < 400; iter++ {
		tr := randTrace(rng, 1+rng.Intn(120), iter%20 == 0)
		wantP, wantS := addCounts(refC, refPairs(tr)), addCounts(refS, refSegments(tr))
		v.Build(tr)
		k.add(&v)
		w.Walk(&v)
		gotP, gotS := w.Fold(fusedC, fusedS)
		if gotP != wantP || gotS != wantS {
			t.Fatalf("iter %d: fused fresh (%d pairs, %d segments), reference (%d, %d)", iter, gotP, gotS, wantP, wantS)
		}
		if p, s := soloC.AddTrace(tr), soloS.AddTrace(tr); p != wantP || s != wantS {
			t.Fatalf("iter %d: standalone fresh (%d pairs, %d segments), reference (%d, %d)", iter, p, s, wantP, wantS)
		}
		// Either accumulator may be nil.
		if p, s := w.Fold(nil, nil); p != 0 || s != 0 {
			t.Fatalf("iter %d: nil accumulators reported (%d, %d)", iter, p, s)
		}
	}
	t.Logf("%d pairs, %d segments; %+v", len(refC), len(refS), k)
	if len(refS) == 0 || len(refC) == 0 || k.lost() {
		t.Fatalf("generator lost its teeth: %d pairs, %d segments, %+v", len(refC), len(refS), k)
	}
	for name, got := range map[string]*Segments{"fused": fusedS, "standalone": soloS} {
		if !reflect.DeepEqual(got.Export(), exportModel(refS)) {
			t.Fatalf("%s segments differ from reference", name)
		}
	}
	for name, got := range map[string]*Coverage{"fused": fusedC, "standalone": soloC} {
		if !reflect.DeepEqual(pairsOf(got), keySet(refC)) {
			t.Fatalf("%s pairs differ from reference", name)
		}
	}
}
