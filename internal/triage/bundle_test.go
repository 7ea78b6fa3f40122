package triage

import (
	"errors"
	"fmt"
	"sync"
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

func TestBundleStoreAndIndex(t *testing.T) {
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

	// First registration is fresh and pins the canonical bundle.
	entry, fresh, err := Register(s, b.Signature, d, "campaign-a")
	if err != nil || !fresh {
		t.Fatalf("first register: fresh=%v err=%v", fresh, err)
	}
	if entry.Bundle != d.String() || entry.Count != 1 {
		t.Fatalf("first entry: %+v", entry)
	}
	// A second campaign folds; the canonical bundle stays the first one.
	other := store.Sum([]byte("different bundle"))
	entry, fresh, err = Register(s, b.Signature, other, "campaign-b")
	if err != nil || fresh {
		t.Fatalf("second register: fresh=%v err=%v", fresh, err)
	}
	if entry.Bundle != d.String() || entry.Count != 2 || len(entry.Campaigns) != 2 {
		t.Fatalf("folded entry: %+v", entry)
	}
	// Re-registering the same campaign bumps the count but not the labels.
	entry, _, err = Register(s, b.Signature, other, "campaign-b")
	if err != nil || entry.Count != 3 || len(entry.Campaigns) != 2 {
		t.Fatalf("re-register: %+v err=%v", entry, err)
	}
	if got, ok := Lookup(s, b.Signature); !ok || got.Count != 3 {
		t.Fatalf("lookup: %+v ok=%v", got, ok)
	}
	if _, ok := Lookup(s, Signature{Kind: "panic", Site: "elsewhere"}); ok {
		t.Fatal("lookup invented an entry")
	}
}

// TestRegisterConcurrentTenants: eight campaigns, each with its own handle
// on one state dir (as sbd's pipelines have), register one signature at
// once; the row must keep every count and every label. Run under -race.
func TestRegisterConcurrentTenants(t *testing.T) {
	dir := t.TempDir()
	sig := Signature{Kind: "panic", Site: "l2tp_session_delete", Channel: "w/r"}
	bundle := store.Sum([]byte("bundle"))
	const tenants = 8
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := store.Open(dir)
			if err != nil {
				t.Error(err)
				return
			}
			if _, _, err := Register(s, sig, bundle, fmt.Sprintf("campaign-%d", i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := Lookup(s, sig)
	if !ok || entry.Count != tenants || len(entry.Campaigns) != tenants {
		t.Fatalf("index row after %d concurrent registrations: %+v (found %v)", tenants, entry, ok)
	}
}
