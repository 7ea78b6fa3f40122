package cover

import (
	"math/rand"
	"reflect"
	"testing"

	"snowboard/internal/detect/model"
	"snowboard/internal/trace"
)

// TestFusedWalkEqualsReference: the one-pass walk feeding both
// accumulators must agree with the model's per-byte-map walks — per trace
// on the fresh counts, at the end on the accumulated state — and so must
// the standalone AddTrace methods.
func TestFusedWalkEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var w Walker
	var v trace.View
	var c model.Census
	fusedC, fusedS := New(), NewSegments()
	soloC, soloS := New(), NewSegments()
	refC, refS := map[Pair]int{}, map[Segment]int{}
	for iter := 0; iter < 400; iter++ {
		data := make([]byte, 1+rng.Intn(120)*3)
		rng.Read(data)
		tr := model.Gen(data)
		m := model.Analyze(tr, nil)
		c.Add(tr, &m)
		pairs, segs := map[Pair]int{}, map[Segment]int{}
		for p := range m.Pairs {
			pairs[Pair(p)] = 1
		}
		for s := range m.Segments {
			segs[Segment{First: Comm(s.First), Second: Comm(s.Second)}] = 1
		}
		wantP, wantS := addCounts(refC, pairs), addCounts(refS, segs)
		v.Build(tr)
		w.Walk(&v)
		gotP, gotS := w.Fold(fusedC, fusedS)
		if gotP != wantP || gotS != wantS {
			t.Fatalf("iter %d: fused fresh (%d pairs, %d segments), model (%d, %d)", iter, gotP, gotS, wantP, wantS)
		}
		if p, s := soloC.AddTrace(tr), soloS.AddTrace(tr); p != wantP || s != wantS {
			t.Fatalf("iter %d: standalone fresh (%d pairs, %d segments), model (%d, %d)", iter, p, s, wantP, wantS)
		}
		// Either accumulator may be nil.
		if p, s := w.Fold(nil, nil); p != 0 || s != 0 {
			t.Fatalf("iter %d: nil accumulators reported (%d, %d)", iter, p, s)
		}
	}
	t.Logf("%d pairs, %d segments; %+v", len(refC), len(refS), c)
	if lost := c.Lost(); len(lost) != 0 {
		t.Fatalf("generator lost its teeth: no %v", lost)
	}
	for name, got := range map[string]*Segments{"fused": fusedS, "standalone": soloS} {
		if !reflect.DeepEqual(got.Export(), exportModel(refS)) {
			t.Fatalf("%s segments differ from the model", name)
		}
	}
	for name, got := range map[string]*Coverage{"fused": fusedC, "standalone": soloC} {
		if !reflect.DeepEqual(pairsOf(got), keySet(refC)) {
			t.Fatalf("%s pairs differ from the model", name)
		}
	}
}
