package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"testing"
)

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("hello artifact")
	d, err := s.Put(KindCorpus, payload)
	if err != nil {
		t.Fatal(err)
	}
	if d != Sum(payload) {
		t.Fatalf("Put digest %s != Sum %s", d, Sum(payload))
	}
	got, err := s.Get(KindCorpus, d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, want %q", got, payload)
	}
	if l := s.List(KindCorpus); len(l) != 1 || l[0] != d {
		t.Errorf("List = %v after Put, want [%s]", l, d)
	}

	// Re-putting identical content is idempotent and keeps the digest.
	d2, err := s.Put(KindCorpus, payload)
	if err != nil || d2 != d {
		t.Fatalf("re-Put = (%s, %v), want (%s, nil)", d2, err, d)
	}
}

func TestGetMissing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Get(KindReport, Sum([]byte("never stored")))
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing = %v, want ErrNotFound", err)
	}
	_, err = s.GetStage(Key("no", "such", "stage"))
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetStage missing = %v, want ErrNotFound", err)
	}
}

func TestGetKindMismatch(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("profile bytes")
	d, err := s.Put(KindProfiles, payload)
	if err != nil {
		t.Fatal(err)
	}
	// Reading the same digest under a different kind misses (objects are
	// sharded by kind on disk).
	if _, err := s.Get(KindCorpus, d); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cross-kind Get = %v, want ErrNotFound", err)
	}
}

// corrupt flips one byte in the stored object file.
func corruptObject(t *testing.T, s *Store, kind Kind, d Digest, off int) {
	t.Helper()
	path := s.objectPath(kind, d)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off = len(data) + off
	}
	data[off] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestGetCorrupt(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("payload under test, long enough to flip bits in")
	d, err := s.Put(KindPMCs, payload)
	if err != nil {
		t.Fatal(err)
	}

	// Bit flip in the payload region → checksum mismatch.
	corruptObject(t, s, KindPMCs, d, 10)
	if _, err := s.Get(KindPMCs, d); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get after payload flip = %v, want ErrCorrupt", err)
	}

	// Truncation → ErrCorrupt, never a panic.
	path := s.objectPath(KindPMCs, d)
	data := envelope(KindPMCs, payload)
	for cut := 0; cut < len(data); cut += 7 {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get(KindPMCs, d); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Get truncated at %d = %v, want ErrCorrupt", cut, err)
		}
	}

	// Valid envelope whose payload hashes to a different digest (content
	// swapped under the same name) → ErrCorrupt.
	if err := os.WriteFile(path, envelope(KindPMCs, []byte("other content")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(KindPMCs, d); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get swapped content = %v, want ErrCorrupt", err)
	}
}

func TestStageMemoRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Put(KindCorpus, []byte("the output artifact"))
	if err != nil {
		t.Fatal(err)
	}
	key := Key("test-schema", "fuzz", "seed=1")
	meta := json.RawMessage(`{"corpus_size":7}`)
	if err := s.PutStage(key, StageResult{Kind: KindCorpus, Out: out, Meta: meta}); err != nil {
		t.Fatal(err)
	}
	res, err := s.GetStage(key)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindCorpus || res.Out != out || string(res.Meta) != string(meta) {
		t.Fatalf("GetStage = %+v, want kind=corpus out=%s meta=%s", res, out.Short(), meta)
	}

	// Corrupting the memo file yields ErrCorrupt, not a bogus result.
	path := s.stagePath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetStage(key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("GetStage corrupted = %v, want ErrCorrupt", err)
	}
}

func TestList(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.List(KindCorpus); len(got) != 0 {
		t.Fatalf("List of empty store = %v", got)
	}
	var want []Digest
	for _, p := range []string{"a", "b", "c"} {
		d, err := s.Put(KindCorpus, []byte(p))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, d)
	}
	if _, err := s.Put(KindReport, []byte("other kind")); err != nil {
		t.Fatal(err)
	}
	got := s.List(KindCorpus)
	if len(got) != len(want) {
		t.Fatalf("List = %d digests, want %d", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		if bytes.Compare(got[i-1][:], got[i][:]) >= 0 {
			t.Fatalf("List not sorted at %d", i)
		}
	}
	for _, w := range want {
		found := false
		for _, g := range got {
			if g == w {
				found = true
			}
		}
		if !found {
			t.Fatalf("List missing %s", w.Short())
		}
	}
}

func TestKeyDistinctness(t *testing.T) {
	// Length-prefixing means part boundaries matter: ("ab","c") != ("a","bc").
	if Key("ab", "c") == Key("a", "bc") {
		t.Error("Key collides across part boundaries")
	}
	if Key("x") == Key("x", "") {
		t.Error("Key ignores empty trailing part")
	}
	if Key("seed=1") == Key("seed=2") {
		t.Error("Key ignores content")
	}
}

func TestParseDigest(t *testing.T) {
	d := Sum([]byte("x"))
	got, err := ParseDigest(d.String())
	if err != nil || got != d {
		t.Fatalf("ParseDigest round-trip = (%s, %v)", got, err)
	}
	for _, bad := range []string{"", "zz", d.String()[:10], d.String() + "00", "G" + d.String()[1:]} {
		if _, err := ParseDigest(bad); err == nil {
			t.Errorf("ParseDigest(%q) accepted", bad)
		}
	}
}

// TestKindValuesPinned pins what a deployed state dir holds of a Kind: its
// byte, which is inside every SBAR envelope and every memo entry's "kind",
// and its name, which is the objects/ subdirectory. Kinds 6 (KindSeries,
// the SBTS time-series) and 7 (KindPMCIndex, the SBPI snapshot) are retired
// in place: renumbering the kinds after them would make Get discard every
// stored feedback checkpoint, SBRB bundle and campaign manifest as corrupt.
func TestKindValuesPinned(t *testing.T) {
	for _, c := range []struct {
		kind Kind
		b    uint8
		name string
	}{
		{KindCorpus, 1, "corpus"},
		{KindProfiles, 2, "profiles"},
		{KindPMCs, 3, "pmcs"},
		{KindReport, 4, "report"},
		{KindStage, 5, "stage"},
		{KindFeedback, 8, "feedback"},
		{KindRepro, 9, "repro"},
		{KindCampaign, 10, "campaign"},
	} {
		if uint8(c.kind) != c.b || c.kind.String() != c.name {
			t.Errorf("kind %q = %d, want %q = %d", c.kind, uint8(c.kind), c.name, c.b)
		}
	}
	for retired, want := range map[Kind]string{6: "kind6", 7: "kind7"} {
		if got := retired.String(); got != want {
			t.Errorf("Kind(%d) = %q, want the retired slot to stay unnamed (%s)", uint8(retired), got, want)
		}
	}
}
