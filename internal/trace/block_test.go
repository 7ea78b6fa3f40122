package trace

import (
	"math/rand"
	"reflect"
	"testing"
)

// checkModel fails unless b holds exactly model, field by field, both as
// At rows and through the field accessors.
func checkModel(t *testing.T, what string, b *Block, model []Access) {
	t.Helper()
	if b.Len() != len(model) {
		t.Fatalf("%s: %d accesses, model %d", what, b.Len(), len(model))
	}
	for i, want := range model {
		want.Seq = i
		if got := b.At(i); got != want {
			t.Fatalf("%s: access %d\nhave %+v\nwant %+v", what, i, got, want)
		}
		if b.ThreadAt(i) != want.Thread || b.InsAt(i) != want.Ins || b.KindAt(i) != want.Kind ||
			b.IsWriteAt(i) != (want.Kind == Write) || b.AddrAt(i) != want.Addr || b.SizeAt(i) != want.Size ||
			b.EndAt(i) != want.End() || b.ValAt(i) != want.Val || b.AtomicAt(i) != want.Atomic ||
			b.MarkedAt(i) != want.Marked || b.StackAt(i) != want.Stack {
			t.Fatalf("%s: access %d: an accessor disagrees with %+v", what, i, want)
		}
	}
}

// TestBlockRowLayout: a row is 32 bytes and holds no pointer, so a trace
// is one allocation the collector never scans; and a Block reused through
// Reset, filtered by Apply and sent through the codec equals a plain
// []Access model of what was recorded.
func TestBlockRowLayout(t *testing.T) {
	rt := reflect.TypeOf(row{})
	if rt.Size() != 32 {
		t.Fatalf("a row is %d bytes, want 32", rt.Size())
	}
	for i := 0; i < rt.NumField(); i++ {
		switch f := rt.Field(i); f.Type.Kind() {
		case reflect.Uint32, reflect.Uint64:
		default:
			t.Fatalf("row field %s is a %s: a row must hold no pointer", f.Name, f.Type)
		}
	}

	rng := rand.New(rand.NewSource(5))
	filters := []Filter{
		DefaultFilter(0),
		{Thread: -1},
		{Thread: 1, KeepStack: true},
		{Thread: -1, KeepAtomics: true, MaxPerProfile: 7},
		{Thread: 2, KeepStack: true, KeepAtomics: true},
	}
	var b Block
	for round := 0; round < 30; round++ {
		model := randomAccesses(rng, rng.Intn(300))
		warm := cap(b.rows)
		b.Reset()
		for _, a := range model {
			b.Record(a.Thread, a.Ins, a.Kind, a.Addr, a.Size, a.Val, a.Atomic, a.Marked, a.Stack, a.RCU, a.Locks)
		}
		if len(model) <= warm && cap(b.rows) != warm {
			t.Fatalf("round %d: Reset gave up the rows: cap %d, was %d", round, cap(b.rows), warm)
		}
		checkModel(t, "recorded", &b, model)

		for _, f := range filters {
			var kept []Access
			for _, a := range model {
				if (f.Thread < 0 || a.Thread == f.Thread) && (!a.Stack || f.KeepStack) && (!a.Atomic || f.KeepAtomics) {
					kept = append(kept, a)
				}
			}
			if f.MaxPerProfile > 0 && len(kept) > f.MaxPerProfile {
				kept = kept[:f.MaxPerProfile]
			}
			out := f.Apply(&b)
			checkModel(t, "filtered", &out, kept)
		}

		back, err := decodeBlock(AppendBlock(nil, &b))
		if err != nil {
			t.Fatal(err)
		}
		checkModel(t, "decoded", &back, model)
	}

	// A warm block records a trial's worth of accesses without allocating.
	model := randomAccesses(rng, 256)
	if allocs := testing.AllocsPerRun(10, func() {
		b.Reset()
		for _, a := range model {
			b.Record(a.Thread, a.Ins, a.Kind, a.Addr, a.Size, a.Val, a.Atomic, a.Marked, a.Stack, a.RCU, a.Locks)
		}
	}); allocs != 0 {
		t.Fatalf("a warm Reset and 256 Records allocate %.1f times", allocs)
	}
}
