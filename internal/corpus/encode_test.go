package corpus

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"snowboard/internal/kernel"
)

// randomProg builds a structurally valid program: known syscall numbers,
// argument counts within spec, resource refs strictly backwards.
func randomProg(rng *rand.Rand) *Prog {
	p := &Prog{}
	ncalls := 1 + rng.Intn(6)
	for i := 0; i < ncalls; i++ {
		nr := rng.Intn(kernel.NumSyscalls)
		spec := &kernel.Syscalls[nr]
		call := Call{Nr: nr}
		nargs := rng.Intn(len(spec.Args) + 1)
		for j := 0; j < nargs; j++ {
			if i > 0 && rng.Intn(4) == 0 {
				call.Args = append(call.Args, Result(rng.Intn(i)))
			} else {
				call.Args = append(call.Args, Const(rng.Uint64()>>uint(rng.Intn(64))))
			}
		}
		p.Calls = append(p.Calls, call)
	}
	return p
}

func randomCorpus(rng *rand.Rand, n int) *Corpus {
	c := NewCorpus()
	for c.Len() < n {
		c.Add(randomProg(rng))
	}
	return c
}

// TestCorpusRoundTrip is the encode→decode property test: for seeded random
// corpora, decoding the encoding reproduces the same programs in the same
// order, and the encoding is canonical (equal corpora → identical bytes).
func TestCorpusRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomCorpus(rng, 1+rng.Intn(40))

		buf := Append(nil, c)
		got, err := Parse(buf)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if !reflect.DeepEqual(got.Progs, c.Progs) {
			t.Fatalf("seed %d: decoded corpus differs", seed)
		}

		// Decoded corpus re-encodes to identical bytes.
		buf2 := Append(nil, got)
		if !bytes.Equal(buf, buf2) {
			t.Fatalf("seed %d: encoding not canonical", seed)
		}

		// The decoder preserves dedup state: re-adding any decoded program
		// is rejected.
		for _, p := range c.Progs {
			if got.Add(p.Clone()) {
				t.Fatalf("seed %d: decoded corpus accepted a duplicate", seed)
			}
		}
	}
}

func TestCorpusRoundTripEmpty(t *testing.T) {
	got, err := Parse(Append(nil, NewCorpus()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("decoded %d programs from empty corpus", got.Len())
	}
}

// TestCorpusDecodeTruncated: every strict prefix of a valid encoding fails
// with ErrBadCorpus — never panics, never decodes silently short.
func TestCorpusDecodeTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := randomCorpus(rng, 10)
	data := Append(nil, c)
	for cut := 0; cut < len(data); cut++ {
		if _, err := Parse(data[:cut]); !errors.Is(err, ErrBadCorpus) {
			t.Fatalf("prefix of %d/%d bytes: err = %v, want ErrBadCorpus", cut, len(data), err)
		}
	}
}

func TestCorpusDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("SBCO"),         // magic only
		[]byte("XXXX\x01\x00"), // wrong magic
		[]byte("SBCO\x02\x00"), // wrong version
		append([]byte("SBCO\x01"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), // huge count
		append(Append(nil, randomCorpus(rand.New(rand.NewSource(7)), 3)), 0),                   // a valid corpus, then a trailing byte
	}
	for i, data := range cases {
		if _, err := Parse(data); !errors.Is(err, ErrBadCorpus) {
			t.Errorf("case %d: err = %v, want ErrBadCorpus", i, err)
		}
	}
}
