package pmc

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"snowboard/internal/trace"
)

func randomKey(rng *rand.Rand) Key {
	return Key{
		Ins:  trace.Ins(rng.Uint64() >> 20),
		Addr: rng.Uint64() >> uint(rng.Intn(32)),
		Size: uint8(1 + rng.Intn(8)),
		Val:  rng.Uint64() >> uint(rng.Intn(64)),
	}
}

// randomSet builds a PMC database through the same Add path identification
// uses, so pair lists are canonically sorted and counts are consistent.
func randomSet(rng *rand.Rand, nkeys, nobs int) *Set {
	s := NewSet()
	keys := make([]PMC, nkeys)
	for i := range keys {
		keys[i] = PMC{Write: randomKey(rng), Read: randomKey(rng), DFLeader: rng.Intn(4) == 0}
	}
	for i := 0; i < nobs; i++ {
		s.Add(keys[rng.Intn(nkeys)], Pair{Writer: rng.Intn(50), Reader: rng.Intn(50)})
	}
	return s
}

// TestSetRoundTrip: decode(encode(x)) deep-equals x for seeded random PMC
// databases, and the encoding is canonical regardless of map iteration.
func TestSetRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randomSet(rng, 1+rng.Intn(20), 1+rng.Intn(200))

		buf := AppendSet(nil, s)
		got, err := ParseSet(buf)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("seed %d: decoded set differs", seed)
		}

		buf2 := AppendSet(nil, got)
		if !bytes.Equal(buf, buf2) {
			t.Fatalf("seed %d: set encoding not canonical", seed)
		}
	}
}

// TestSetRoundTripDuplicatePairs: Entry.Pairs keeps observations with
// multiplicity; equal neighbouring pairs must survive the round trip.
func TestSetRoundTripDuplicatePairs(t *testing.T) {
	s := NewSet()
	p := PMC{Write: Key{Ins: 1, Addr: 0x10, Size: 4, Val: 7}, Read: Key{Ins: 2, Addr: 0x10, Size: 4, Val: 7}}
	for i := 0; i < 3; i++ {
		s.Add(p, Pair{Writer: 5, Reader: 9})
	}
	buf := AppendSet(nil, s)
	got, err := ParseSet(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatal("set with duplicate pairs did not round-trip")
	}
}

func TestSetDecodeTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := randomSet(rng, 8, 100)
	data := AppendSet(nil, s)
	for cut := 0; cut < len(data); cut += 3 {
		if _, err := ParseSet(data[:cut]); !errors.Is(err, ErrBadSet) {
			t.Fatalf("prefix of %d/%d bytes: err = %v, want ErrBadSet", cut, len(data), err)
		}
	}
	if _, err := ParseSet(append(data, 0)); !errors.Is(err, ErrBadSet) {
		t.Fatalf("a trailing byte: err = %v, want ErrBadSet", err)
	}
}

func TestSetDecodeRejectsNonCanonicalPairs(t *testing.T) {
	// Hand-build a set whose pair list is descending, encode it by abusing
	// EncodeSet (which emits entries verbatim), and check the decoder
	// rejects the ordering violation.
	s := NewSet()
	p := PMC{Write: Key{Ins: 1, Addr: 8, Size: 4, Val: 1}, Read: Key{Ins: 2, Addr: 8, Size: 4, Val: 1}}
	s.Entries[p] = &Entry{PMC: p, Pairs: []Pair{{Writer: 9, Reader: 9}, {Writer: 1, Reader: 1}}, PairCount: 2}
	s.TotalCombinations = 2
	buf := AppendSet(nil, s)
	if _, err := ParseSet(buf); !errors.Is(err, ErrBadSet) {
		t.Fatalf("err = %v, want ErrBadSet for descending pair list", err)
	}
}
