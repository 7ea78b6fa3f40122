package pmc

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"snowboard/internal/trace"
)

// randomBlock builds a block of n structurally valid accesses.
func randomBlock(rng *rand.Rand, n int) trace.Block {
	var out trace.Block
	for i := 0; i < n; i++ {
		a := trace.Access{
			Thread: rng.Intn(4),
			Ins:    trace.Ins(rng.Uint64() >> uint(rng.Intn(40))),
			Addr:   rng.Uint64() >> uint(rng.Intn(32)),
			Size:   uint8(1 + rng.Intn(8)),
			Val:    rng.Uint64() >> uint(rng.Intn(64)),
			Atomic: rng.Intn(8) == 0,
			Marked: rng.Intn(8) == 0,
			Stack:  rng.Intn(8) == 0,
			RCU:    rng.Intn(8) == 0,
		}
		if rng.Intn(2) == 0 {
			a.Kind = trace.Write
		}
		if rng.Intn(5) == 0 {
			locks := make([]uint64, 1+rng.Intn(3))
			for j := range locks {
				locks[j] = rng.Uint64() >> 16
			}
			sort.Slice(locks, func(x, y int) bool { return locks[x] < locks[y] })
			a.Locks = trace.InternLocks(locks)
		}
		out.Record(a.Thread, a.Ins, a.Kind, a.Addr, a.Size, a.Val, a.Atomic, a.Marked, a.Stack, a.RCU, a.Locks)
	}
	return out
}

func randomProfiles(rng *rand.Rand, n int) []Profile {
	out := make([]Profile, n)
	for i := range out {
		accs := randomBlock(rng, rng.Intn(30))
		df := make(map[int]bool)
		for j := 0; j < accs.Len(); j++ {
			if rng.Intn(6) == 0 {
				df[j] = true
			}
		}
		out[i] = Profile{TestID: i, Accesses: accs, DFLeader: df}
	}
	return out
}

// profilesEqual compares profile sets access-by-access (the blocks' internal
// row slices may differ in nil-ness/capacity after a decode).
func profilesEqual(a, b []Profile) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].TestID != b[i].TestID || !reflect.DeepEqual(a[i].DFLeader, b[i].DFLeader) {
			return false
		}
		if a[i].Accesses.Len() != b[i].Accesses.Len() {
			return false
		}
		for j := 0; j < a[i].Accesses.Len(); j++ {
			if a[i].Accesses.At(j) != b[i].Accesses.At(j) {
				return false
			}
		}
	}
	return true
}

// TestProfilesRoundTrip: for seeded random profile sets, decode(encode(x))
// equals x and the encoding is canonical.
func TestProfilesRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		profiles := randomProfiles(rng, 1+rng.Intn(12))

		var buf bytes.Buffer
		if err := EncodeProfiles(&buf, profiles); err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		got, err := DecodeProfiles(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if !profilesEqual(got, profiles) {
			t.Fatalf("seed %d: decoded profiles differ", seed)
		}

		var buf2 bytes.Buffer
		if err := EncodeProfiles(&buf2, got); err != nil {
			t.Fatalf("seed %d: re-encode: %v", seed, err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("seed %d: profile encoding not canonical", seed)
		}
	}
}

func TestProfilesDecodeTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	profiles := randomProfiles(rng, 6)
	var buf bytes.Buffer
	if err := EncodeProfiles(&buf, profiles); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut += 3 {
		if _, err := DecodeProfiles(bytes.NewReader(data[:cut])); !errors.Is(err, ErrBadProfiles) {
			t.Fatalf("prefix of %d/%d bytes: err = %v, want ErrBadProfiles", cut, len(data), err)
		}
	}
}

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

		var buf bytes.Buffer
		if err := EncodeSet(&buf, s); err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		got, err := DecodeSet(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("seed %d: decoded set differs", seed)
		}

		var buf2 bytes.Buffer
		if err := EncodeSet(&buf2, got); err != nil {
			t.Fatalf("seed %d: re-encode: %v", seed, err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
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
	var buf bytes.Buffer
	if err := EncodeSet(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSet(bytes.NewReader(buf.Bytes()))
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
	var buf bytes.Buffer
	if err := EncodeSet(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut += 3 {
		if _, err := DecodeSet(bytes.NewReader(data[:cut])); !errors.Is(err, ErrBadSet) {
			t.Fatalf("prefix of %d/%d bytes: err = %v, want ErrBadSet", cut, len(data), err)
		}
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
	var buf bytes.Buffer
	if err := EncodeSet(&buf, s); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSet(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrBadSet) {
		t.Fatalf("err = %v, want ErrBadSet for descending pair list", err)
	}
}
