package trace

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestDefInsIdempotent(t *testing.T) {
	a := DefIns("test_fn:op_a")
	b := DefIns("test_fn:op_a")
	if a != b {
		t.Fatalf("same name produced different ids: %v vs %v", a, b)
	}
	if a.Name() != "test_fn:op_a" {
		t.Fatalf("name roundtrip failed: %q", a.Name())
	}
}

func TestDefInsDistinctNames(t *testing.T) {
	seen := make(map[Ins]string)
	for i := 0; i < 500; i++ {
		name := fmt.Sprintf("distinct_fn_%d:op", i)
		id := DefIns(name)
		if id == NoIns {
			t.Fatalf("NoIns assigned to %q", name)
		}
		if prev, dup := seen[id]; dup {
			t.Fatalf("id collision: %q and %q both %v", prev, name, id)
		}
		seen[id] = name
	}
}

func TestUnregisteredInsName(t *testing.T) {
	// An Ins decoded from a foreign trace prints a stable placeholder.
	var foreign Ins = 0x12345
	if foreign.Name() == "" {
		t.Fatal("empty name for unregistered ins")
	}
}

func TestRegisteredInsSorted(t *testing.T) {
	DefIns("sorted_check:a")
	ids := RegisteredIns()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("RegisteredIns not strictly ascending at %d", i)
		}
	}
}

func TestKindString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Fatal("kind strings wrong")
	}
}

func TestOverlaps(t *testing.T) {
	cases := []struct {
		a, b Access
		want bool
	}{
		{Access{Addr: 0x100, Size: 8}, Access{Addr: 0x100, Size: 8}, true},
		{Access{Addr: 0x100, Size: 8}, Access{Addr: 0x107, Size: 1}, true},
		{Access{Addr: 0x100, Size: 8}, Access{Addr: 0x108, Size: 1}, false},
		{Access{Addr: 0x100, Size: 1}, Access{Addr: 0xff, Size: 2}, true},
		{Access{Addr: 0x100, Size: 1}, Access{Addr: 0xff, Size: 1}, false},
		{Access{Addr: 0x0, Size: 8}, Access{Addr: 0x4, Size: 8}, true},
	}
	for i, c := range cases {
		if got := c.a.Overlaps(&c.b); got != c.want {
			t.Errorf("case %d: Overlaps=%v want %v", i, got, c.want)
		}
		if got := c.b.Overlaps(&c.a); got != c.want {
			t.Errorf("case %d: Overlaps not symmetric", i)
		}
	}
}

func TestOverlapRange(t *testing.T) {
	a := Access{Addr: 0x100, Size: 8}
	b := Access{Addr: 0x104, Size: 8}
	lo, hi := a.OverlapRange(&b)
	if lo != 0x104 || hi != 0x108 {
		t.Fatalf("overlap [%#x,%#x), want [0x104,0x108)", lo, hi)
	}
}

func TestProjectVal(t *testing.T) {
	// 8-byte little-endian value 0x8877665544332211 at 0x100.
	a := Access{Addr: 0x100, Size: 8, Val: 0x8877665544332211}
	if got := a.ProjectVal(0x100, 0x108); got != a.Val {
		t.Fatalf("full projection %#x", got)
	}
	if got := a.ProjectVal(0x100, 0x101); got != 0x11 {
		t.Fatalf("first byte %#x", got)
	}
	if got := a.ProjectVal(0x107, 0x108); got != 0x88 {
		t.Fatalf("last byte %#x", got)
	}
	if got := a.ProjectVal(0x102, 0x104); got != 0x4433 {
		t.Fatalf("middle word %#x", got)
	}
}

func TestProjectValPanicsOutsideRange(t *testing.T) {
	a := Access{Addr: 0x100, Size: 4, Val: 1}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range projection")
		}
	}()
	a.ProjectVal(0x100, 0x105)
}

// TestProjectValAgainstBytes is a property test: projecting onto any
// subrange equals reassembling the little-endian bytes of that subrange.
func TestProjectValAgainstBytes(t *testing.T) {
	f := func(val uint64, sizeSeed, offSeed, lenSeed uint8) bool {
		size := int(sizeSeed%8) + 1
		a := Access{Addr: 0x1000, Size: uint8(size), Val: val & ((1 << (8 * uint(size))) - 1)}
		off := uint64(offSeed) % uint64(size)
		ln := uint64(lenSeed)%(uint64(size)-off) + 1
		lo, hi := a.Addr+off, a.Addr+off+ln
		got := a.ProjectVal(lo, hi)
		want := uint64(0)
		for i := uint64(0); i < ln; i++ {
			b := byte(a.Val >> (8 * (off + i)))
			want |= uint64(b) << (8 * i)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSharesLock(t *testing.T) {
	a, b, c := []uint64{1, 5, 9}, []uint64{2, 5}, []uint64{3, 4}
	if !SharesLock(a, b) {
		t.Fatal("shared lock 5 not found")
	}
	if SharesLock(a, c) || SharesLock(a, nil) || SharesLock(nil, nil) {
		t.Fatal("phantom shared lock")
	}
}

func TestTraceAppendSeq(t *testing.T) {
	var tr Trace
	for i := 0; i < 5; i++ {
		tr.Record(0, uint64(i), 0, 0)
	}
	for i := 0; i < tr.Len(); i++ {
		if a := tr.At(i); a.Seq != i {
			t.Fatalf("seq %d at index %d", a.Seq, i)
		}
	}
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestFilterThreadStackAtomic(t *testing.T) {
	var tr Trace
	tr.Record(0, 1, 0, 0)
	tr.Record(0, 2, 0, ThreadMeta(1))
	tr.Record(0, 3, 0, MetaStack)
	tr.Record(0, 4, 0, MetaAtomic)
	tr.Record(0, 5, 0, MetaMarked)

	got := DefaultFilter(0).Apply(&tr)
	if got.Len() != 2 || got.At(0).Addr != 1 || got.At(1).Addr != 5 {
		t.Fatalf("default filter kept %d accesses", got.Len())
	}

	all := Filter{Thread: -1, KeepStack: true, KeepAtomics: true}.Apply(&tr)
	if all.Len() != 5 {
		t.Fatalf("permissive filter kept %d", all.Len())
	}

	capped := Filter{Thread: -1, KeepStack: true, KeepAtomics: true, MaxPerProfile: 2}.Apply(&tr)
	if capped.Len() != 2 {
		t.Fatalf("cap ignored: %d", capped.Len())
	}
}

func mkRead(b *Block, ins Ins, addr uint64, size uint8, val uint64) {
	b.Record(ins, addr, val, Meta(size))
}

func mkWrite(b *Block, ins Ins, addr uint64, size uint8, val uint64) {
	b.Record(ins, addr, val, Meta(size)|MetaWrite)
}

func TestMarkDoubleFetches(t *testing.T) {
	i1 := DefIns("df_test:first")
	i2 := DefIns("df_test:second")
	i3 := DefIns("df_test:writer")

	// Classic double fetch: two reads, different instructions, same value.
	var accs Block
	mkRead(&accs, i1, 0x100, 8, 42)
	mkRead(&accs, i2, 0x100, 8, 42)
	df := MarkDoubleFetches(&accs)
	if !df[0] || df[1] {
		t.Fatalf("double fetch not marked on leader: %v", df)
	}

	// Intervening write kills the pairing.
	accs.Reset()
	mkRead(&accs, i1, 0x100, 8, 42)
	mkWrite(&accs, i3, 0x100, 8, 43)
	mkRead(&accs, i2, 0x100, 8, 43)
	if df := MarkDoubleFetches(&accs); len(df) != 0 {
		t.Fatalf("marked despite intervening write: %v", df)
	}

	// Same instruction re-reading (a loop) is not a double fetch.
	accs.Reset()
	mkRead(&accs, i1, 0x100, 8, 42)
	mkRead(&accs, i1, 0x100, 8, 42)
	if df := MarkDoubleFetches(&accs); len(df) != 0 {
		t.Fatalf("same-ins pair marked: %v", df)
	}

	// Different values on the shared range: not a double fetch.
	accs.Reset()
	mkRead(&accs, i1, 0x100, 8, 42)
	mkRead(&accs, i2, 0x100, 8, 99)
	if df := MarkDoubleFetches(&accs); len(df) != 0 {
		t.Fatalf("different-value pair marked: %v", df)
	}

	// Partial overlap with matching projected bytes is a double fetch.
	accs.Reset()
	mkRead(&accs, i1, 0x100, 8, 0x1122334455667788)
	mkRead(&accs, i2, 0x104, 4, 0x11223344)
	df = MarkDoubleFetches(&accs)
	if !df[0] {
		t.Fatalf("partial-overlap double fetch missed: %v", df)
	}
}
