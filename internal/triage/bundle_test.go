package triage

import (
	"errors"
	"testing"

	"snowboard/internal/detect"
	"snowboard/internal/kernel"
	"snowboard/internal/store"
)

func testBundle(t *testing.T) *Bundle {
	t.Helper()
	env, f := l2tpFinding(t, 1)
	res, err := Minimize(env, f, Options{Detect: detect.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	return &Bundle{
		Format:    FormatVersion,
		Kernel:    kernel.V5_12_RC3,
		Writer:    res.Test.Writer,
		Reader:    res.Test.Reader,
		Hint:      res.Test.Hint,
		State:     res.State,
		Signature: res.Signature,
		BugID:     12,
		Stats:     res.Stats,
	}
}

func TestBundleRoundTrip(t *testing.T) {
	b := testBundle(t)
	data, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Signature != b.Signature || got.BugID != 12 || got.State == nil {
		t.Fatalf("round trip: %+v", got)
	}
	// Encoding is canonical: same bundle, same digest.
	data2, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if store.Sum(data) != store.Sum(data2) {
		t.Fatal("bundle encoding is not canonical")
	}
}

func TestDecodeDistinguishesStaleFromCorrupt(t *testing.T) {
	b := testBundle(t)
	data, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"garbage", []byte("not json at all"), ErrCorrupt},
		{"missing format", []byte(`{"kernel":"5.12-rc3"}`), ErrStale},
		{"newer format", []byte(`{"format":99}`), ErrStale},
		{"older format", []byte(`{"format":0}`), ErrStale},
		{"right format, invalid body", []byte(`{"format":1}`), ErrCorrupt},
		{"truncated", data[:len(data)/2], ErrCorrupt},
	}
	for _, tc := range cases {
		if _, err := Decode(tc.data); !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	// Stale and corrupt never overlap.
	if _, err := Decode([]byte(`{"format":2}`)); errors.Is(err, ErrCorrupt) {
		t.Fatal("stale decode also matched ErrCorrupt")
	}
}

func TestBundleStoreRoundTrip(t *testing.T) {
	b := testBundle(t)
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Put(store.KindRepro, data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadBundle(s, d)
	if err != nil {
		t.Fatal(err)
	}
	if got.Signature != b.Signature {
		t.Fatalf("loaded bundle signature: %+v", got.Signature)
	}
}
