package pmc_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"snowboard/internal/pmc"
	"snowboard/internal/pmc/difftest"
)

func encodeIncremental(t *testing.T, inc *pmc.Incremental) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pmc.EncodeIncremental(&buf, inc); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// TestIncrementalRoundTrip: decode(encode(x)) restores an Incremental that
// (a) carries the same accounting and derives the same cumulative set from
// the decoded aggregate, and (b) continues — fed the remaining batches, it
// lands on the same set as the per-access reference over the whole corpus.
// Re-encoding the decoded state must reproduce the bytes exactly (canonical
// form), which is what keeps SBPI content addresses stable across
// snapshot/restore cycles.
func TestIncrementalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 15; trial++ {
		opt := pmc.DefaultOptions()
		if trial%3 == 1 {
			opt.AllowSelfPairs = false
		}
		profiles := difftest.GenCorpus(rng, 6+rng.Intn(10))
		cut := 1 + rng.Intn(len(profiles)-1)

		a := pmc.NewIncremental(opt)
		a.AddBatch(profiles[:cut])
		dec := difftest.RoundTrip(t, a, opt)
		if dec.Profiles() != cut {
			t.Fatalf("trial %d: decoded identifier covers %d profiles, want %d", trial, dec.Profiles(), cut)
		}

		// Resume: the decoded identifier fed the rest equals the reference.
		dec.AddBatch(profiles[cut:])
		if d := difftest.Diff(difftest.Reference(profiles, opt), dec.Set()); d != "" {
			t.Fatalf("trial %d: resumed identification diverges from the reference:\n%s", trial, d)
		}
	}
}

// TestIncrementalDecodeTruncated: every strict prefix of a valid SBPI
// encoding must fail with ErrBadIncremental, never panic or succeed.
func TestIncrementalDecodeTruncated(t *testing.T) {
	inc := pmc.NewIncremental(pmc.DefaultOptions())
	inc.AddBatch(difftest.GenCorpus(rand.New(rand.NewSource(32)), 8))
	data := encodeIncremental(t, inc)
	for cut := 0; cut < len(data); cut++ {
		if _, err := pmc.DecodeIncremental(bytes.NewReader(data[:cut]), pmc.DefaultOptions()); !errors.Is(err, pmc.ErrBadIncremental) {
			t.Fatalf("prefix of %d/%d bytes: err = %v, want ErrBadIncremental", cut, len(data), err)
		}
	}
	// Trailing garbage is rejected too.
	if _, err := pmc.DecodeIncremental(bytes.NewReader(append(append([]byte(nil), data...), 0x7f)), pmc.DefaultOptions()); !errors.Is(err, pmc.ErrBadIncremental) {
		t.Fatalf("trailing byte: err = %v, want ErrBadIncremental", err)
	}
}

// TestIncrementalDecodeRejectsCorruptHeader covers the header checks: wrong
// magic, and any version but the current one (v1 snapshots included — the
// chain key mixes the version in, so they are never looked up, and a stray
// one must not misdecode).
func TestIncrementalDecodeRejectsCorruptHeader(t *testing.T) {
	inc := pmc.NewIncremental(pmc.DefaultOptions())
	inc.AddBatch(difftest.GenCorpus(rand.New(rand.NewSource(33)), 4))
	good := encodeIncremental(t, inc)

	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	if _, err := pmc.DecodeIncremental(bytes.NewReader(bad), pmc.DefaultOptions()); !errors.Is(err, pmc.ErrBadIncremental) {
		t.Fatalf("bad magic: err = %v", err)
	}
	for _, ver := range []byte{0, pmc.IncrementalCodecVersion - 1, pmc.IncrementalCodecVersion + 1} {
		bad = append([]byte(nil), good...)
		bad[4] = ver
		if _, err := pmc.DecodeIncremental(bytes.NewReader(bad), pmc.DefaultOptions()); !errors.Is(err, pmc.ErrBadIncremental) {
			t.Fatalf("version %d: err = %v", ver, err)
		}
	}
}

// sbpiKey is one hand-written key record of an SBPI snapshot.
type sbpiKey struct {
	ins, addr uint64
	size      byte
	val       uint64
	df        byte
	tests     [][2]uint64 // (test, count)
}

// sbpi hand-encodes a snapshot, so the rejection tests can write what the
// encoder never would.
func sbpi(reads, writes []sbpiKey) []byte {
	out := append([]byte("SBPI"), pmc.IncrementalCodecVersion)
	out = binary.AppendUvarint(out, 1) // batches
	out = binary.AppendUvarint(out, 2) // profiles
	for side, keys := range [][]sbpiKey{reads, writes} {
		out = binary.AppendUvarint(out, uint64(len(keys)))
		for _, k := range keys {
			out = binary.AppendUvarint(out, k.ins)
			out = binary.AppendUvarint(out, k.addr)
			out = append(out, k.size)
			out = binary.AppendUvarint(out, k.val)
			if side == 0 {
				out = append(out, k.df)
			}
			out = binary.AppendUvarint(out, uint64(len(k.tests)))
			for _, tc := range k.tests {
				out = binary.AppendUvarint(out, tc[0])
				out = binary.AppendUvarint(out, tc[1])
			}
		}
	}
	return out
}

// TestIncrementalDecodeRejectsNonCanonical: the decoder accepts exactly
// what the encoder writes. A snapshot that is well-formed byte by byte but
// out of canonical form — keys unsorted or repeated, a test listed twice or
// out of order, a zero count, a key nobody observed, a size outside 1..8, a
// stray df flag, counts past the cap — is rejected, because decode →
// re-encode could not reproduce it and its content address would lie.
func TestIncrementalDecodeRejectsNonCanonical(t *testing.T) {
	one := [][2]uint64{{0, 1}}
	r := func(ins uint64, df byte, tests [][2]uint64) sbpiKey {
		return sbpiKey{ins: ins, addr: 0x100, size: 8, val: 2, df: df, tests: tests}
	}
	w := sbpiKey{ins: 9, addr: 0x100, size: 8, val: 1, tests: [][2]uint64{{1, 3}}}

	good := sbpi([]sbpiKey{r(1, 0, one), r(1, 1, one), r(2, 0, [][2]uint64{{0, 2}, {4, 1}})}, []sbpiKey{w})
	inc, err := pmc.DecodeIncremental(bytes.NewReader(good), pmc.DefaultOptions())
	if err != nil {
		t.Fatalf("canonical hand-written snapshot rejected: %v", err)
	}
	if !bytes.Equal(good, encodeIncremental(t, inc)) {
		t.Fatal("canonical hand-written snapshot does not re-encode to itself")
	}
	if got := inc.Set().TotalCombinations; got != (1+1+3)*3 {
		t.Fatalf("derived set counts %d combinations, want 15", got)
	}

	for name, bad := range map[string][]byte{
		"unsorted keys":      sbpi([]sbpiKey{r(2, 0, one), r(1, 0, one)}, nil),
		"duplicate key":      sbpi([]sbpiKey{r(1, 0, one), r(1, 0, one)}, nil),
		"df before plain":    sbpi([]sbpiKey{r(1, 1, one), r(1, 0, one)}, nil),
		"duplicate test":     sbpi([]sbpiKey{r(1, 0, [][2]uint64{{3, 1}, {3, 1}})}, nil),
		"descending tests":   sbpi([]sbpiKey{r(1, 0, [][2]uint64{{3, 1}, {2, 1}})}, nil),
		"zero count":         sbpi([]sbpiKey{r(1, 0, [][2]uint64{{3, 0}})}, nil),
		"unobserved key":     sbpi([]sbpiKey{r(1, 0, nil)}, nil),
		"df flag 2":          sbpi([]sbpiKey{r(1, 2, one)}, nil),
		"size 0":             sbpi(nil, []sbpiKey{{ins: 9, addr: 0x100, size: 0, tests: one}}),
		"size 9":             sbpi(nil, []sbpiKey{{ins: 9, addr: 0x100, size: 9, tests: one}}),
		"count past the cap": sbpi([]sbpiKey{r(1, 0, [][2]uint64{{0, 1 << 28}, {1, 1}})}, nil),
		"count overflow":     sbpi(nil, []sbpiKey{{ins: 9, addr: 0x100, size: 8, tests: [][2]uint64{{0, 1 << 63}}}}),
		"unsorted writes":    sbpi(nil, []sbpiKey{{ins: 9, addr: 0x108, size: 8, tests: one}, {ins: 9, addr: 0x100, size: 8, tests: one}}),
	} {
		if _, err := pmc.DecodeIncremental(bytes.NewReader(bad), pmc.DefaultOptions()); !errors.Is(err, pmc.ErrBadIncremental) {
			t.Errorf("%s: err = %v, want ErrBadIncremental", name, err)
		}
	}
}

// TestIncrementalEmpty pins the degenerate cases: an empty batch is a
// no-op, and an empty identifier round-trips.
func TestIncrementalEmpty(t *testing.T) {
	inc := pmc.NewIncremental(pmc.DefaultOptions())
	inc.AddBatch(nil)
	if inc.Batches() != 0 || inc.Profiles() != 0 || inc.Set().Len() != 0 {
		t.Fatalf("empty batch mutated state: %d batches, %d profiles", inc.Batches(), inc.Profiles())
	}
	dec, err := pmc.DecodeIncremental(bytes.NewReader(encodeIncremental(t, inc)), pmc.DefaultOptions())
	if err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	if dec.Set().Len() != 0 || dec.Profiles() != 0 {
		t.Fatalf("decoded empty identifier not empty")
	}
}
