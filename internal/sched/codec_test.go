package sched

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"snowboard/internal/detect"
	"snowboard/internal/pmc"
)

// offWire names the Outcome fields the binary form leaves out.
var offWire = map[string]bool{"Segments": true}

// fillOutcome sets every wire-carried field of o, through every list and
// pointer, from r: in dense mode every list holds two elements and every
// pointer, string and leaf is non-zero; otherwise lists hold 0–3 elements,
// pointers may be nil and leaves span their whole range. Empty lists stay
// nil, as Decode leaves them, and IssueTrials is as long as Issues, as
// Explore keeps it. It returns the struct types it filled and fails on a
// field kind it cannot fill.
func fillOutcome(t testing.TB, o *Outcome, r *rand.Rand, dense bool) map[reflect.Type]bool {
	seen := make(map[reflect.Type]bool)
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			seen[v.Type()] = true
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				if !f.IsExported() || (v.Type() == reflect.TypeOf(Outcome{}) && offWire[f.Name]) {
					continue
				}
				fill(v.Field(i))
			}
		case reflect.Pointer:
			if dense || r.Intn(2) == 0 {
				v.Set(reflect.New(v.Type().Elem()))
				fill(v.Elem())
			}
		case reflect.Slice:
			n := 2
			if !dense {
				n = r.Intn(4)
			}
			if n > 0 {
				v.Set(reflect.MakeSlice(v.Type(), n, n))
				for i := 0; i < n; i++ {
					fill(v.Index(i))
				}
			}
		case reflect.String:
			b := make([]byte, r.Intn(8))
			r.Read(b)
			if dense {
				b = append(b, 0xff) // not UTF-8: the bytes travel as they are
			}
			v.SetString(string(b))
		case reflect.Bool:
			v.SetBool(dense || r.Intn(2) == 0)
		case reflect.Int, reflect.Int64:
			v.SetInt(int64(r.Uint64()))
		case reflect.Uint8, reflect.Uint32, reflect.Uint64:
			v.SetUint(r.Uint64()) // truncated to the field's width
		default:
			t.Fatalf("fillOutcome: no filler for %s fields; does the codec carry them?", v.Type())
		}
		if dense && v.IsZero() {
			switch v.Kind() {
			case reflect.Int, reflect.Int64:
				v.SetInt(-1)
			case reflect.Uint8, reflect.Uint32, reflect.Uint64:
				v.SetUint(1)
			}
		}
	}
	fill(reflect.ValueOf(o).Elem())
	o.IssueTrials = nil
	for range o.Issues {
		o.IssueTrials = append(o.IssueTrials, int(int64(r.Uint64())))
	}
	return seen
}

// roundTrip encodes o after a prefix it must leave alone and decodes it
// back.
func roundTrip(t testing.TB, o *Outcome) Outcome {
	prefix := []byte("prefix")
	b := o.Encode(bytes.Clone(prefix))
	if !bytes.HasPrefix(b, prefix) {
		t.Fatalf("Encode rewrote the bytes it appends to: %q", b)
	}
	b = b[len(prefix):]
	if again := o.Encode(nil); !bytes.Equal(again, b) {
		t.Fatalf("Encode is not deterministic:\n%x\n%x", b, again)
	}
	var back Outcome
	if err := back.Decode(b); err != nil {
		t.Fatalf("Decode(Encode(o)): %v\n% x", err, b)
	}
	return back
}

func TestOutcomeCodecCoversEveryField(t *testing.T) {
	// A census: every exported, wire-carried field of Outcome and of the
	// types it holds is set, and must survive the codec. A field added to
	// any of them without a place in the codec fails here.
	for seed := int64(1); seed <= 8; seed++ {
		var o Outcome
		seen := fillOutcome(t, &o, rand.New(rand.NewSource(seed)), true)
		for _, typ := range []reflect.Type{
			reflect.TypeOf(Outcome{}), reflect.TypeOf(ReproState{}), reflect.TypeOf(AccessSig{}),
			reflect.TypeOf(detect.Issue{}), reflect.TypeOf(pmc.PMC{}), reflect.TypeOf(pmc.Key{}),
		} {
			if !seen[typ] {
				t.Fatalf("the census never reached a %s", typ)
			}
		}
		if back := roundTrip(t, &o); !reflect.DeepEqual(back, o) {
			t.Fatalf("seed %d: a field did not survive the codec:\nhave %+v\nwant %+v", seed, back, o)
		}
	}
	var zero Outcome
	if back := roundTrip(t, &zero); !reflect.DeepEqual(back, zero) {
		t.Fatalf("the zero outcome came back as %+v", back)
	}
}

func TestOutcomeDecodeRefuses(t *testing.T) {
	var o Outcome
	o.Issues = []detect.Issue{{Kind: detect.KindPanic, Desc: "Kernel panic"}}
	o.IssueTrials = []int{2}
	o.Repro = &ReproState{Seed: 9, Flips: []int{3}}
	good := o.Encode(nil)
	for _, tc := range []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"unknown version", append([]byte{outcomeVersion + 1}, good[1:]...)},
		{"JSON", []byte(`{"Trials":3}`)},
		{"trailing byte", append(bytes.Clone(good), 0)},
		// One issue count past what the bytes left can hold, and one a
		// 2⁶³-element allocation would need: neither is sized.
		{"issue count past the input", []byte{outcomeVersion, 0, 0, 0, 0, 0x7f}},
		{"huge issue count", []byte{outcomeVersion, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}},
		{"bool out of range", []byte{outcomeVersion, 0, 2}},
		{"overlong varint", append([]byte{outcomeVersion}, bytes.Repeat([]byte{0x80}, 11)...)},
	} {
		var back Outcome
		back.Trials = 5
		err := back.Decode(tc.b)
		if !errors.Is(err, ErrBadOutcome) {
			t.Errorf("%s: Decode = %v, want ErrBadOutcome", tc.name, err)
		}
		if !reflect.DeepEqual(back, Outcome{}) {
			t.Errorf("%s: a refused decode left %+v", tc.name, back)
		}
	}
	for n := range good {
		var back Outcome
		if err := back.Decode(good[:n]); !errors.Is(err, ErrBadOutcome) {
			t.Fatalf("truncated to %d of %d bytes: Decode = %v, want ErrBadOutcome", n, len(good), err)
		}
	}
}

func TestOutcomeDecodeAllocBudget(t *testing.T) {
	// A typical settled outcome decodes into its two issue lists, one
	// description and the repro state with its three lists.
	var o Outcome
	fillOutcome(t, &o, rand.New(rand.NewSource(1)), true)
	o.Issues, o.IssueTrials = o.Issues[:1], o.IssueTrials[:1]
	b := o.Encode(nil)
	var back Outcome
	if got := testing.AllocsPerRun(100, func() {
		if err := back.Decode(b); err != nil {
			t.Fatal(err)
		}
	}); got > 7 {
		t.Fatalf("Decode: %.1f allocations, want ≤ 7", got)
	}
	if got := testing.AllocsPerRun(100, func() { b = o.Encode(b[:0]) }); got != 0 {
		t.Fatalf("Encode into a buffer with room: %.1f allocations, want 0", got)
	}
}

func FuzzOutcomeCodec(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		var o Outcome
		fillOutcome(f, &o, rand.New(rand.NewSource(seed)), seed%2 == 0)
		f.Add(o.Encode(nil), seed)
	}
	f.Add([]byte(nil), int64(0))
	f.Add([]byte{outcomeVersion, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}, int64(1))
	f.Add([]byte(`{"Trials":3}`), int64(2))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		// An outcome drawn from seed survives the codec.
		var o Outcome
		fillOutcome(t, &o, rand.New(rand.NewSource(seed)), false)
		if back := roundTrip(t, &o); !reflect.DeepEqual(back, o) {
			t.Fatalf("seed %d: decode(encode(o)) differs:\nhave %+v\nwant %+v", seed, back, o)
		}
		// Arbitrary bytes decode or are refused, never panic, and size no
		// list past what the input could hold.
		var got Outcome
		if err := got.Decode(data); err != nil {
			if !errors.Is(err, ErrBadOutcome) || !reflect.DeepEqual(got, Outcome{}) {
				t.Fatalf("refused decode: %v, left %+v", err, got)
			}
			return
		}
		if len(got.Issues) > len(data)/minIssueBytes || len(got.IssueTrials) != len(got.Issues) {
			t.Fatalf("%d issues, %d trials from %d bytes", len(got.Issues), len(got.IssueTrials), len(data))
		}
		if st := got.Repro; st != nil && (len(st.PMCs) > len(data)/minPMCBytes ||
			len(st.Flags) > len(data)/minSigBytes || len(st.Flips) > len(data)/minFlipBytes) {
			t.Fatalf("repro lists %d/%d/%d from %d bytes", len(st.PMCs), len(st.Flags), len(st.Flips), len(data))
		}
		if back := roundTrip(t, &got); !reflect.DeepEqual(back, got) {
			t.Fatalf("a decoded outcome does not survive re-encoding:\nhave %+v\nwant %+v", back, got)
		}
	})
}
