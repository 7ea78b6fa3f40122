package cover

import (
	"math/rand"
	"testing"

	"snowboard/internal/trace"
)

// edgeModel is the reference the flat set is compared with: the map of
// instruction pairs Edges used to be.
type edgeModel map[[2]trace.Ins]bool

// add folds tr's edges in and returns how many were new.
func (m edgeModel) add(tr *trace.Trace) int {
	fresh := 0
	for i := 1; i < tr.Len(); i++ {
		e := [2]trace.Ins{tr.InsAt(i - 1), tr.InsAt(i)}
		if !m[e] {
			m[e] = true
			fresh++
		}
	}
	return fresh
}

// has reports whether the model holds the edge with the given key.
func (m edgeModel) has(key uint64) bool {
	return m[[2]trace.Ins{trace.Ins(key >> 32), trace.Ins(key)}]
}

// insTrace builds a trace whose i-th access is at site ins[i].
func insTrace(ins []trace.Ins) *trace.Trace {
	var tr trace.Trace
	for _, x := range ins {
		tr.Record(0, x, trace.Read, 0, 0, 0, false, false, false, false, 0)
	}
	return &tr
}

// checkEdges runs one trace through both observation paths — AddTrace on
// whole, Missing+Add on probed — and through the model, which must already
// agree with both sets, and fails on any difference.
func checkEdges(t *testing.T, whole, probed *Edges, model edgeModel, tr *trace.Trace) {
	t.Helper()
	inTrace := make(edgeModel)
	inTrace.add(tr)

	missing := probed.Missing(tr, nil)
	for _, k := range missing {
		if !inTrace.has(k) {
			t.Fatalf("Missing returned %#x, not an edge of the trace", k)
		}
		if model.has(k) {
			t.Fatalf("Missing returned %#x, which the set holds", k)
		}
	}
	want := model.add(tr)
	if want == 0 && missing != nil {
		t.Fatalf("a trace that adds nothing is missing %v, want nil", missing)
	}
	if got := probed.Add(missing); got != want {
		t.Fatalf("Add(Missing) added %d, model %d", got, want)
	}
	if got := probed.Add(missing); got != 0 {
		t.Fatalf("second Add of the same keys added %d", got)
	}
	if again := probed.Missing(tr, nil); again != nil {
		t.Fatalf("Missing after Add: %v", again)
	}
	if got := whole.AddTrace(tr); got != want {
		t.Fatalf("AddTrace added %d, model %d", got, want)
	}
	if whole.Len() != len(model) || probed.Len() != len(model) {
		t.Fatalf("Len: AddTrace %d, Missing+Add %d, model %d", whole.Len(), probed.Len(), len(model))
	}
}

func TestEdgesEqualsMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// A small alphabet with both ends of the Ins range makes repeated and
	// already-covered edges common; the occasional random site grows the
	// table through several doublings.
	alphabet := []trace.Ins{0, 1, 2, 3, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFE, 0xFFFFFFFF}
	whole, probed, model := NewEdges(), NewEdges(), make(edgeModel)
	repeats := 0
	for round := 0; round < 600; round++ {
		n := rng.Intn(40)
		if round%7 == 0 {
			n = rng.Intn(2) // empty and one-access traces: no edge at all
		}
		ins := make([]trace.Ins, n)
		for i := range ins {
			if rng.Intn(5) == 0 {
				ins[i] = trace.Ins(rng.Uint32())
			} else {
				ins[i] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		tr := insTrace(ins)
		if fresh := make(edgeModel); n > 1 && fresh.add(tr) < n-1 {
			repeats++
		}
		checkEdges(t, whole, probed, model, tr)
	}
	if repeats == 0 || len(model) < 1000 {
		t.Fatalf("generator lost its teeth: %d traces repeat an edge, %d distinct edges", repeats, len(model))
	}
}

// FuzzEdges feeds byte-derived traces through the same check: each byte is
// one access, the low bits picking a site from both ends of the range.
func FuzzEdges(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7})
	f.Add([]byte{0, 0, 0, 0})                // the (0,0) edge, repeated
	f.Add([]byte{0xFF, 0xFF, 0, 0xFF})       // the top site
	f.Add([]byte{1, 2, 1, 2, 0x80, 1, 2, 3}) // a split point between two traces
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			return
		}
		whole, probed, model := NewEdges(), NewEdges(), make(edgeModel)
		var ins []trace.Ins
		flush := func() {
			checkEdges(t, whole, probed, model, insTrace(ins))
			ins = ins[:0]
		}
		for _, b := range data {
			switch {
			case b == 0x80: // ends a trace
				flush()
			case b&0x40 != 0:
				ins = append(ins, 0xFFFFFFFF-trace.Ins(b&0x3F))
			default:
				ins = append(ins, trace.Ins(b&0x3F))
			}
		}
		flush()
	})
}
