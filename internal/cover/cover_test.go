package cover

import (
	"testing"

	"snowboard/internal/trace"
)

var (
	cvW = trace.DefIns("cover_test:w")
	cvR = trace.DefIns("cover_test:r")
	cvX = trace.DefIns("cover_test:x")
)

func tAcc(th int, kind trace.Kind, ins trace.Ins, addr uint64) trace.Access {
	return trace.Access{Thread: th, Kind: kind, Ins: ins, Addr: addr, Size: 8}
}

func trOf(accs ...trace.Access) *trace.Trace {
	tr := &trace.Trace{}
	for _, a := range accs {
		tr.Record(a.Thread, a.Ins, a.Kind, a.Addr, a.Size, a.Val, a.Atomic, a.Marked, a.Stack, a.RCU, a.Locks)
	}
	return tr
}

// has reports whether c covers p.
func (c *Coverage) has(p Pair) bool { return c.set.Get(pairKey(p.First, p.Second)) != nil }

// count returns seg's hit count in s, inserting nothing.
func (s *Segments) count(seg Segment) int {
	if s.slots == nil {
		return 0
	}
	return s.slots[s.index(seg)].n
}

func TestCrossThreadPairCovered(t *testing.T) {
	c := New()
	fresh := c.AddTrace(trOf(
		tAcc(0, trace.Write, cvW, 0x100),
		tAcc(1, trace.Read, cvR, 0x100),
	))
	if fresh != 1 || c.Len() != 1 {
		t.Fatalf("fresh=%d len=%d", fresh, c.Len())
	}
	if !c.has(Pair{First: cvW, Second: cvR}) {
		t.Fatal("pair not covered")
	}
}

func TestSameThreadNotCovered(t *testing.T) {
	c := New()
	if fresh := c.AddTrace(trOf(
		tAcc(0, trace.Write, cvW, 0x100),
		tAcc(0, trace.Read, cvR, 0x100),
	)); fresh != 0 {
		t.Fatalf("same-thread pair covered: %d", fresh)
	}
}

func TestReadReadNotCovered(t *testing.T) {
	c := New()
	if fresh := c.AddTrace(trOf(
		tAcc(0, trace.Read, cvW, 0x100),
		tAcc(1, trace.Read, cvR, 0x100),
	)); fresh != 0 {
		t.Fatalf("read/read pair covered: %d", fresh)
	}
}

func TestDisjointMemoryNotCovered(t *testing.T) {
	c := New()
	if fresh := c.AddTrace(trOf(
		tAcc(0, trace.Write, cvW, 0x100),
		tAcc(1, trace.Read, cvR, 0x200),
	)); fresh != 0 {
		t.Fatalf("disjoint pair covered: %d", fresh)
	}
}

func TestInterveningAccessBreaksPair(t *testing.T) {
	c := New()
	fresh := c.AddTrace(trOf(
		tAcc(0, trace.Write, cvW, 0x100),
		tAcc(1, trace.Write, cvX, 0x100), // interposes
		tAcc(0, trace.Read, cvR, 0x100),
	))
	// Pairs: (w -> x) and (x -> r); but never (w -> r).
	if fresh != 2 {
		t.Fatalf("fresh=%d", fresh)
	}
	if c.has(Pair{First: cvW, Second: cvR}) {
		t.Fatal("non-adjacent pair covered")
	}
}

func TestStackAndAtomicIgnored(t *testing.T) {
	c := New()
	w := tAcc(0, trace.Write, cvW, 0x100)
	w.Stack = true
	r := tAcc(1, trace.Read, cvR, 0x100)
	if fresh := c.AddTrace(trOf(w, r)); fresh != 0 {
		t.Fatal("stack access covered")
	}
	w.Stack, w.Atomic = false, true
	if fresh := c.AddTrace(trOf(w, r)); fresh != 0 {
		t.Fatal("atomic access covered")
	}
}

func TestFreshCountsOnlyNewPairs(t *testing.T) {
	c := New()
	tr := trOf(
		tAcc(0, trace.Write, cvW, 0x100),
		tAcc(1, trace.Read, cvR, 0x100),
	)
	if fresh := c.AddTrace(tr); fresh != 1 {
		t.Fatalf("first: %d", fresh)
	}
	if fresh := c.AddTrace(tr); fresh != 0 {
		t.Fatalf("repeat counted as fresh: %d", fresh)
	}
	if !c.has(Pair{First: cvW, Second: cvR}) || c.Len() != 1 {
		t.Fatalf("repeat changed the set: len %d", c.Len())
	}
}

func TestPartialOverlapCovered(t *testing.T) {
	c := New()
	w := trace.Access{Thread: 0, Kind: trace.Write, Ins: cvW, Addr: 0x100, Size: 8}
	r := trace.Access{Thread: 1, Kind: trace.Read, Ins: cvR, Addr: 0x104, Size: 2}
	if fresh := c.AddTrace(trOf(w, r)); fresh != 1 {
		t.Fatalf("partial overlap not covered: %d", fresh)
	}
}

// --- allocation guards ---

// TestAddTraceSteadyStateAllocs pins the satellite fix for per-trial alloc
// churn: once the scratch maps are warm, folding a trace whose pairs and
// segments are already covered must not allocate at all.
func TestAddTraceSteadyStateAllocs(t *testing.T) {
	tr := trOf(
		tAcc(0, trace.Write, cvW, 0x100),
		tAcc(1, trace.Read, cvR, 0x100),
		tAcc(0, trace.Write, cvX, 0x200),
		tAcc(1, trace.Read, cvR, 0x200),
	)
	c := New()
	c.AddTrace(tr) // warm scratch + cover the pairs
	if n := testing.AllocsPerRun(50, func() { c.AddTrace(tr) }); n != 0 {
		t.Fatalf("Coverage.AddTrace steady state allocates %.1f/op, want 0", n)
	}
	s := NewSegments()
	s.AddTrace(tr)
	if n := testing.AllocsPerRun(50, func() { s.AddTrace(tr) }); n != 0 {
		t.Fatalf("Segments.AddTrace steady state allocates %.1f/op, want 0", n)
	}
}

// BenchmarkCoverageAddTrace is the allocs/op record behind the steady-state
// guard above (run with -benchmem).
func BenchmarkCoverageAddTrace(b *testing.B) {
	tr := trOf(
		tAcc(0, trace.Write, cvW, 0x100),
		tAcc(1, trace.Read, cvR, 0x100),
		tAcc(0, trace.Write, cvX, 0x200),
		tAcc(1, trace.Read, cvR, 0x200),
	)
	c := New()
	c.AddTrace(tr)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.AddTrace(tr)
	}
}

// BenchmarkWalkAllUnaligned is the walk's worst case since its cells went
// word-granular: two threads sharing 64 words through accesses that all
// cover part of a word or straddle two, so every word is split once per
// trace and every access walks per-byte cells, as all did before. Compare
// with the parent commit; the aligned twin shows what the common case saves.
func BenchmarkWalkAllUnaligned(b *testing.B) { benchWalk(b, false) }

// BenchmarkWalkAllAligned is the same trace with every access the aligned
// 8-byte access of its first word.
func BenchmarkWalkAllAligned(b *testing.B) { benchWalk(b, true) }

func benchWalk(b *testing.B, aligned bool) {
	sites := []trace.Ins{cvW, cvR, cvX}
	tr := &trace.Trace{}
	for i := 0; i < 2048; i++ {
		a := trace.Access{Thread: i & 1, Kind: trace.Kind(i >> 1 & 1), Ins: sites[i%3],
			Addr: 0x1000 + uint64(i*37%512) | 1, Size: uint8(2 + i%7)}
		if aligned {
			a.Addr, a.Size = a.Addr&^7, 8
		}
		tr.Record(a.Thread, a.Ins, a.Kind, a.Addr, a.Size, a.Val, a.Atomic, a.Marked, a.Stack, a.RCU, a.Locks)
	}
	c, s := New(), NewSegments()
	c.AddTrace(tr)
	s.AddTrace(tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AddTrace(tr)
		s.AddTrace(tr)
	}
}

// --- Segment metric golden tests (hand-built traces) ---

var (
	segAW = trace.DefIns("segsubA:store")
	segBR = trace.DefIns("segsubB:load")
	segCW = trace.DefIns("segsubC:store")
	segDR = trace.DefIns("segsubD:load")
	segA2 = trace.DefIns("segsubA:store2") // same region as segAW
	segB2 = trace.DefIns("segsubB:load2")  // same region as segBR
)

func comm(w, r trace.Ins) Comm {
	return Comm{Write: trace.RegionOf(w), Read: trace.RegionOf(r)}
}

func TestSegmentGoldenTwoComms(t *testing.T) {
	s := NewSegments()
	fresh := s.AddTrace(trOf(
		tAcc(0, trace.Write, segAW, 0x100),
		tAcc(1, trace.Read, segBR, 0x100), // comm 1: A=>B
		tAcc(0, trace.Write, segCW, 0x200),
		tAcc(1, trace.Read, segDR, 0x200), // comm 2: C=>D
	))
	if fresh != 1 || s.Len() != 1 {
		t.Fatalf("fresh=%d len=%d, want 1/1", fresh, s.Len())
	}
	want := Segment{First: comm(segAW, segBR), Second: comm(segCW, segDR)}
	if s.count(want) != 1 {
		t.Fatalf("golden segment %s not covered", want)
	}
}

func TestSegmentCollapsesConsecutiveDuplicates(t *testing.T) {
	// Two back-to-back communications that abstract to the same region pair
	// (A=>B) collapse into one; no self-segment [A=>B ; A=>B] may appear.
	s := NewSegments()
	fresh := s.AddTrace(trOf(
		tAcc(0, trace.Write, segAW, 0x100),
		tAcc(1, trace.Read, segBR, 0x100), // comm: A=>B
		tAcc(0, trace.Write, segA2, 0x200),
		tAcc(1, trace.Read, segB2, 0x200), // comm: A=>B again — collapsed
		tAcc(0, trace.Write, segCW, 0x300),
		tAcc(1, trace.Read, segDR, 0x300), // comm: C=>D
	))
	ab := comm(segAW, segBR)
	if got := s.count(Segment{First: ab, Second: ab}); got != 0 {
		t.Fatalf("self-segment covered %d times, want 0", got)
	}
	want := Segment{First: ab, Second: comm(segCW, segDR)}
	if fresh != 1 || s.count(want) != 1 {
		t.Fatalf("fresh=%d count(%s)=%d, want 1/1", fresh, want, s.count(want))
	}
}

func TestSegmentSingleCommNoSegment(t *testing.T) {
	// One communication is a 1-gram; the metric only counts 2-grams.
	s := NewSegments()
	if fresh := s.AddTrace(trOf(
		tAcc(0, trace.Write, segAW, 0x100),
		tAcc(1, trace.Read, segBR, 0x100),
	)); fresh != 0 || s.Len() != 0 {
		t.Fatalf("single comm produced segments: fresh=%d len=%d", fresh, s.Len())
	}
}

func TestSegmentOrderDistinguished(t *testing.T) {
	// [A=>B ; C=>D] and [C=>D ; A=>B] are distinct segments: the metric
	// exists to capture orderings *between* communications.
	forward := trOf(
		tAcc(0, trace.Write, segAW, 0x100),
		tAcc(1, trace.Read, segBR, 0x100),
		tAcc(0, trace.Write, segCW, 0x200),
		tAcc(1, trace.Read, segDR, 0x200),
	)
	backward := trOf(
		tAcc(0, trace.Write, segCW, 0x200),
		tAcc(1, trace.Read, segDR, 0x200),
		tAcc(0, trace.Write, segAW, 0x100),
		tAcc(1, trace.Read, segBR, 0x100),
	)
	s := NewSegments()
	if fresh := s.AddTrace(forward); fresh != 1 {
		t.Fatalf("forward fresh=%d", fresh)
	}
	if fresh := s.AddTrace(backward); fresh != 1 {
		t.Fatalf("reversed ordering not counted as a new segment: fresh=%d", fresh)
	}
	if s.Len() != 2 {
		t.Fatalf("len=%d, want 2", s.Len())
	}
}

func TestSegmentsMergeCommutative(t *testing.T) {
	// Merging per-worker accumulators in any order must yield the same
	// covered set and counts — the contract the parallel fold needs.
	traces := []*trace.Trace{
		trOf(
			tAcc(0, trace.Write, segAW, 0x100),
			tAcc(1, trace.Read, segBR, 0x100),
			tAcc(0, trace.Write, segCW, 0x200),
			tAcc(1, trace.Read, segDR, 0x200),
		),
		trOf(
			tAcc(0, trace.Write, segCW, 0x200),
			tAcc(1, trace.Read, segDR, 0x200),
			tAcc(0, trace.Write, segAW, 0x100),
			tAcc(1, trace.Read, segBR, 0x100),
		),
		trOf(
			tAcc(0, trace.Write, segAW, 0x300),
			tAcc(1, trace.Read, segDR, 0x300),
			tAcc(0, trace.Write, segCW, 0x400),
			tAcc(1, trace.Read, segBR, 0x400),
		),
	}
	build := func(order []int) *Segments {
		parts := make([]*Segments, len(traces))
		for i, tr := range traces {
			parts[i] = NewSegments()
			parts[i].AddTrace(tr)
		}
		total := NewSegments()
		for _, i := range order {
			total.Merge(parts[i])
		}
		return total
	}
	a := build([]int{0, 1, 2})
	b := build([]int{2, 0, 1})
	ea, eb := a.Export(), b.Export()
	if len(ea) != len(eb) {
		t.Fatalf("merge order changed distinct set: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
	// Shared-accumulator equivalence: one accumulator fed all traces.
	shared := NewSegments()
	for _, tr := range traces {
		shared.AddTrace(tr)
	}
	if shared.Len() != a.Len() {
		t.Fatalf("merged len %d != shared len %d", a.Len(), shared.Len())
	}
}

func TestSegmentsExportImportRoundTrip(t *testing.T) {
	s := NewSegments()
	s.AddTrace(trOf(
		tAcc(0, trace.Write, segAW, 0x100),
		tAcc(1, trace.Read, segBR, 0x100),
		tAcc(0, trace.Write, segCW, 0x200),
		tAcc(1, trace.Read, segDR, 0x200),
	))
	s.AddTrace(trOf(
		tAcc(0, trace.Write, segAW, 0x100),
		tAcc(1, trace.Read, segBR, 0x100),
		tAcc(0, trace.Write, segCW, 0x200),
		tAcc(1, trace.Read, segDR, 0x200),
	))
	got := ImportSegments(s.Export()).Export()
	want := s.Export()
	if len(got) != len(want) {
		t.Fatalf("round trip changed entry count: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d differs after round trip: %+v vs %+v", i, got[i], want[i])
		}
	}
}
