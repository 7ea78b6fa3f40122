package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"snowboard/internal/wire"
)

func randomBlock(rng *rand.Rand, n int) Block {
	var out Block
	for _, a := range randomAccesses(rng, n) {
		out.Record(a.Thread, a.Ins, a.Kind, a.Addr, a.Size, a.Val, a.Atomic, a.Marked, a.Stack, a.RCU, a.Locks)
	}
	return out
}

// randomAccesses draws n accesses, Seq left zero.
func randomAccesses(rng *rand.Rand, n int) []Access {
	out := make([]Access, n)
	for i := range out {
		a := Access{
			Thread: rng.Intn(3),
			Ins:    Ins(rng.Uint32()),
			Addr:   0x10000 + uint64(rng.Intn(1<<20)),
			Size:   uint8(rng.Intn(8) + 1),
			Atomic: rng.Intn(8) == 0,
			Marked: rng.Intn(8) == 0,
			Stack:  rng.Intn(8) == 0,
			RCU:    rng.Intn(8) == 0,
		}
		a.Val = rng.Uint64() & ((1 << (8 * uint(a.Size))) - 1)
		if a.Kind = Read; rng.Intn(2) == 0 {
			a.Kind = Write
		}
		var locks []uint64
		for j := 0; j < rng.Intn(3); j++ {
			locks = append(locks, uint64(0x100*(j+1)))
		}
		a.Locks = InternLocks(locks)
		out[i] = a
	}
	return out
}

// decodeBlock reads data as exactly one block.
func decodeBlock(data []byte) (Block, error) {
	r := wire.NewReader(data, ErrBadTrace)
	b := ReadBlock(r)
	return b, r.Done()
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 20; round++ {
		accs := randomBlock(rng, rng.Intn(200))
		got, err := decodeBlock(AppendBlock(nil, &accs))
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != accs.Len() {
			t.Fatalf("round %d: %d != %d", round, got.Len(), accs.Len())
		}
		for i := 0; i < accs.Len(); i++ {
			w, g := accs.At(i), got.At(i)
			if w != g {
				t.Fatalf("round %d access %d:\nwant %+v\ngot  %+v", round, i, w, g)
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	var valid Block
	valid.Record(1, 2, Write, 0x100, 4, 5, false, false, false, false, 0)
	cases := [][]byte{
		nil,                // no count
		[]byte("XXXX"),     // 88 records claimed, three bytes of them
		[]byte("SBTR\x02"), // a framed stream: the bare form reads 'S' as a count
		[]byte("\x05"),     // truncated records
		[]byte("\xff\xff\xff\xff\xff\xff\xff\xff\x7f"), // absurd count
		append(AppendBlock(nil, &valid), 0),            // a valid block, then a trailing byte
	}
	for i, c := range cases {
		if _, err := decodeBlock(c); !errors.Is(err, ErrBadTrace) {
			t.Fatalf("case %d decoded", i)
		}
	}
}

func TestDecodeRejectsBadSize(t *testing.T) {
	var accs Block
	accs.Record(0, 0, Read, 0x100, 8, 1, false, false, false, false, 0)
	raw := AppendBlock(nil, &accs)
	// Corrupt the size byte (it follows flags+thread+ins+addr).
	idx := bytes.LastIndexByte(raw, 8)
	raw[idx] = 99
	if _, err := decodeBlock(raw); err == nil {
		t.Fatal("corrupted size accepted")
	}
}

func TestDecodeRejectsHugeThread(t *testing.T) {
	// A thread id above the 16-bit packed-meta limit must be rejected, not
	// silently truncated into another thread's identity.
	var buf bytes.Buffer
	buf.WriteByte(1)                    // count
	buf.WriteByte(0)                    // flags
	buf.Write([]byte{0x80, 0x80, 0x08}) // thread uvarint = 0x20000
	buf.WriteByte(0x01)                 // ins
	buf.WriteByte(0x02)                 // addr delta
	buf.WriteByte(8)                    // size
	buf.WriteByte(0x00)                 // val
	if _, err := decodeBlock(buf.Bytes()); err == nil {
		t.Fatal("oversized thread id accepted")
	}
}

func TestEncodeCompactness(t *testing.T) {
	// Spatially clustered accesses (the common case) must encode far
	// smaller than the naive 40+ bytes per record.
	var accs Block
	for i := 0; i < 1000; i++ {
		accs.Record(0, Ins(0x1234), Read, 0x100000+uint64(i%64)*8, 8, uint64(i%7), false, false, false, false, 0)
	}
	perRecord := float64(len(AppendBlock(nil, &accs))) / float64(accs.Len())
	if perRecord > 16 {
		t.Fatalf("encoding too fat: %.1f bytes/record", perRecord)
	}
}

// TestLockSetAliasingImmunity proves the old "shared slice, do not mutate"
// footgun on Access.Locks is gone by construction: mutating the slice a
// decoded trace hands back cannot corrupt sibling accesses or the intern
// table, because Addrs always returns a fresh copy.
func TestLockSetAliasingImmunity(t *testing.T) {
	locks := []uint64{0x100, 0x200}
	var accs Block
	accs.Record(0, 0, Read, 0x10, 8, 0, false, false, false, false, InternLocks(locks))
	accs.Record(0, 0, Read, 0x20, 8, 0, false, false, false, false, InternLocks(locks))
	dec, err := decodeBlock(AppendBlock(nil, &accs))
	if err != nil {
		t.Fatal(err)
	}
	got := dec.At(0).Locks.Addrs()
	got[0] = 0xdead
	got[1] = 0xbeef
	for i := 0; i < dec.Len(); i++ {
		if a := dec.At(i).Locks.Addrs(); a[0] != 0x100 || a[1] != 0x200 {
			t.Fatalf("sibling access %d lockset corrupted: %#x", i, a)
		}
	}
	// The intern table itself is untouched: a fresh interning of the same
	// set still resolves to the original addresses.
	if a := InternLocks(locks).Addrs(); a[0] != 0x100 || a[1] != 0x200 {
		t.Fatalf("intern table corrupted: %#x", a)
	}
}
