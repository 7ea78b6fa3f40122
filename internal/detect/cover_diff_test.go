package detect

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"snowboard/internal/cover"
	"snowboard/internal/trace"
)

// refPairs and refSegments are the per-byte-map walks the coverage walker
// replaced, as internal/cover keeps them for TestFusedWalkEqualsReference:
// one map[uint64]refLast each, re-walking the trace.

type refLast struct {
	ins    trace.Ins
	thread int
	write  bool
}

func refPairs(tr *trace.Trace) map[cover.Pair]int {
	last := make(map[uint64]refLast)
	local := make(map[cover.Pair]int)
	for i, n := 0, tr.Len(); i < n; i++ {
		if tr.StackAt(i) || tr.AtomicAt(i) {
			continue
		}
		ins, thread, isWrite := tr.InsAt(i), tr.ThreadAt(i), tr.IsWriteAt(i)
		for b := tr.AddrAt(i); b < tr.EndAt(i); b++ {
			if prev, ok := last[b]; ok && prev.thread != thread && (prev.write || isWrite) {
				local[cover.Pair{First: prev.ins, Second: ins}] = 1
			}
			last[b] = refLast{ins: ins, thread: thread, write: isWrite}
		}
	}
	return local
}

func refSegments(tr *trace.Trace) map[cover.Segment]int {
	last := make(map[uint64]refLast)
	seen := make(map[cover.Segment]int)
	var prev cover.Comm
	havePrev := false
	for i, n := 0, tr.Len(); i < n; i++ {
		if tr.StackAt(i) || tr.AtomicAt(i) {
			continue
		}
		ins, thread, isWrite := tr.InsAt(i), tr.ThreadAt(i), tr.IsWriteAt(i)
		comm := cover.Comm{}
		haveComm := false
		for b := tr.AddrAt(i); b < tr.EndAt(i); b++ {
			if p, ok := last[b]; ok && p.thread != thread && (p.write || isWrite) && !haveComm {
				comm = cover.Comm{Write: trace.RegionOf(p.ins), Read: trace.RegionOf(ins)}
				haveComm = true
			}
			last[b] = refLast{ins: ins, thread: thread, write: isWrite}
		}
		if !haveComm || (havePrev && comm == prev) {
			continue
		}
		if havePrev {
			seen[cover.Segment{First: prev, Second: comm}] = 1
		}
		prev, havePrev = comm, true
	}
	return seen
}

// regionIns stands in for diffIns, index for index, in traces that must
// cross regions: every genTrace instruction is in the one region
// "detect_test", and a segment needs two distinct communications.
var regionIns = []trace.Ins{
	trace.DefIns("hbcover_a:w"), trace.DefIns("hbcover_b:r"), trace.DefIns("hbcover_c:w"),
	trace.DefIns("hbcover_a:r"), trace.DefIns("hbcover_b:w"), trace.DefIns("hbcover_c:r"),
}

// regionTrace is genTrace over data with its instructions spread over
// three regions.
func regionTrace(data []byte) *trace.Trace {
	tr, src := &trace.Trace{}, genTrace(data)
	for i := 0; i < src.Len(); i++ {
		a := src.At(i)
		a.Ins = regionIns[slices.Index(diffIns, a.Ins)]
		tr.Record(a.Thread, a.Ins, a.Kind, a.Addr, a.Size, a.Val, a.Atomic, a.Marked, a.Stack, a.RCU, a.Locks)
	}
	return tr
}

// addRef folds a trace's distinct units into a reference accumulator and
// returns how many were new to it.
func addRef[K comparable](acc, trial map[K]int) int {
	fresh := 0
	for k := range trial {
		if acc[k] == 0 {
			fresh++
		}
		acc[k]++
	}
	return fresh
}

// TestRaceWalkCoverageEqualsReference: the coverage walker riding the
// happens-before walk of Analyze must derive, trace by trace, the fresh
// pairs and segments of the per-byte-map walks, and accumulate the
// segments' hit counts — over genTrace's shapes, spread over regions: straddles, split
// words, stack and lock-word accesses among shared data, thread ids past
// the view's mask.
func TestRaceWalkCoverageEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var sc Scratch
	var w cover.Walker
	var k teeth
	cov, segs := cover.New(), cover.NewSegments()
	refP, refS := make(map[cover.Pair]int), make(map[cover.Segment]int)
	for iter := 0; iter < 3000; iter++ {
		data := make([]byte, 1+rng.Intn(60)*3)
		if iter%50 == 0 {
			data = make([]byte, 1+1200*3)
		}
		rng.Read(data)
		tr := regionTrace(data)
		sc.Analyze(TrialInput{Trace: tr, Cover: &w}, Options{Races: true})
		k.add(&sc.view)
		gotP, gotS := w.Fold(cov, segs)
		if wantP, wantS := addRef(refP, refPairs(tr)), addRef(refS, refSegments(tr)); gotP != wantP || gotS != wantS {
			t.Fatalf("iter %d: riding walker fresh (%d pairs, %d segments), reference (%d, %d)", iter, gotP, gotS, wantP, wantS)
		}
	}
	t.Logf("%d pairs, %d segments; %+v", len(refP), len(refS), k)
	if len(refP) == 0 || len(refS) == 0 || k.lost() {
		t.Fatalf("generator lost its teeth: %d pairs, %d segments, %+v", len(refP), len(refS), k)
	}
	var entries []cover.SegmentCount
	for seg, n := range refS {
		entries = append(entries, cover.SegmentCount{Seg: seg, N: n})
	}
	if !reflect.DeepEqual(segs.Export(), cover.ImportSegments(entries).Export()) {
		t.Fatal("riding walker's segments differ from reference")
	}
	if cov.Len() != len(refP) {
		t.Fatalf("riding walker covered %d pairs, reference %d", cov.Len(), len(refP))
	}
}
