package detect

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"snowboard/internal/cover"
	"snowboard/internal/detect/model"
	"snowboard/internal/trace"
)

// checkTrial runs both halves of data, as two consecutive model.Gen
// traces, through one scratch (so the second proves the reset), and diffs
// each trace's analysis against the model: the races of the happens-before
// walk, alone and again with a coverage walker riding it, in report order;
// the riding walker's pairs and segments; the torn reads. c, when set,
// takes the census of what the traces exercised.
func checkTrial(t *testing.T, sc *Scratch, data []byte, c *model.Census) {
	t.Helper()
	var w cover.Walker
	half := len(data) / 2
	for _, part := range [][]byte{data[:half], data[half:]} {
		tr := model.Gen(part)
		want := model.Analyze(tr, nil)
		if c != nil {
			c.Add(tr, &want)
		}
		alone := slices.Clone(findRacesHB(sc, tr))
		if riding := sc.hb.findRaces(&sc.view, &w); !slices.Equal(riding, alone) {
			t.Fatalf("trace %v:\nalone  %+v\nriding %+v", tr, alone, riding)
		}
		races := make([]RaceReport, len(want.Races))
		for i, r := range want.Races {
			races[i] = RaceReport(r)
		}
		if !slices.Equal(alone, races) {
			t.Fatalf("trace %v:\nmodel %+v\nflat  %+v", tr, races, alone)
		}
		cov, segs := cover.New(), cover.NewSegments()
		w.Fold(cov, segs)
		if cov.Len() != len(want.Pairs) || cov.Merge(coverageOf(want.Pairs)) != 0 {
			t.Fatalf("trace %v: the riding walker covered %d pairs, the model %v", tr, cov.Len(), want.Pairs)
		}
		var entries []cover.SegmentCount
		for s := range want.Segments {
			entries = append(entries, cover.SegmentCount{Seg: cover.Segment{First: cover.Comm(s.First), Second: cover.Comm(s.Second)}, N: 1})
		}
		if got, want := segs.Export(), cover.ImportSegments(entries).Export(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trace %v: the riding walker's segments %v, the model's %v", tr, got, want)
		}
		torn := make([]TornRead, len(want.Torn))
		for i, r := range want.Torn {
			torn[i] = TornRead(r)
		}
		if got := FindTornReads(tr); !slices.Equal(got, torn) {
			t.Fatalf("trace %v: FindTornReads %+v, model %+v", tr, got, torn)
		}
	}
}

// coverageOf returns a Coverage of exactly the pairs: a walker folds in
// each from one cell written at its first instruction and then, by
// another thread, at its second.
func coverageOf[V any](pairs map[model.Pair]V) *cover.Coverage {
	var w cover.Walker
	for p := range pairs {
		var cell cover.Pred
		w.Begin(p.First, 0, true)
		w.Step(&cell)
		w.End()
		w.Begin(p.Second, 1, true)
		w.Step(&cell)
		w.End()
	}
	c := cover.New()
	w.Fold(c, nil)
	return c
}

func TestTrialAnalysisEqualsModel(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var sc Scratch
	var c model.Census
	for iter := 0; iter < 3000; iter++ {
		data := make([]byte, 2+rng.Intn(60)*3)
		if iter%50 == 0 {
			data = make([]byte, 2+1200*3) // long: far accesses outgrow the initial table
		}
		rng.Read(data)
		checkTrial(t, &sc, data, &c)
	}
	t.Logf("%+v", c)
	if lost := c.Lost(); len(lost) != 0 {
		t.Fatalf("generator lost its teeth: no %v", lost)
	}
}

// TestRaceWalkCoverageEqualsReference: the coverage walker riding the
// happens-before walk of Analyze must derive, trace by trace, the fresh
// pairs and segments of the model's per-byte-map walk, and accumulate
// them — the segments with their hit counts — over model.Gen traces.
func TestRaceWalkCoverageEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var sc Scratch
	var w cover.Walker
	cov, segs := cover.New(), cover.NewSegments()
	accP, accS := make(map[model.Pair]int), make(map[model.Segment]int)
	for iter := 0; iter < 3000; iter++ {
		data := make([]byte, 1+rng.Intn(60)*3)
		if iter%50 == 0 {
			data = make([]byte, 1+1200*3)
		}
		rng.Read(data)
		tr := model.Gen(data)
		pairs, segments := model.Coverage(tr)
		sc.Analyze(TrialInput{Trace: tr, Cover: &w}, Options{Races: true})
		gotP, gotS := w.Fold(cov, segs)
		if wantP, wantS := model.AddFresh(accP, pairs), model.AddFresh(accS, segments); gotP != wantP || gotS != wantS {
			t.Fatalf("iter %d: riding walker fresh (%d pairs, %d segments), model (%d, %d)", iter, gotP, gotS, wantP, wantS)
		}
	}
	t.Logf("%d pairs, %d segments", len(accP), len(accS))
	if len(accP) == 0 || len(accS) == 0 {
		t.Fatalf("generator lost its teeth: %d pairs, %d segments", len(accP), len(accS))
	}
	var entries []cover.SegmentCount
	for s, n := range accS {
		entries = append(entries, cover.SegmentCount{Seg: cover.Segment{First: cover.Comm(s.First), Second: cover.Comm(s.Second)}, N: n})
	}
	if !reflect.DeepEqual(segs.Export(), cover.ImportSegments(entries).Export()) {
		t.Fatal("riding walker's segments differ from the model's")
	}
	if cov.Len() != len(accP) || cov.Merge(coverageOf(accP)) != 0 {
		t.Fatalf("riding walker covered %d pairs, the model %d", cov.Len(), len(accP))
	}
}

// seeds are the FuzzTrialAnalysis corpus: each a trace of model.Gen's
// encoding, given twice over so that both halves checkTrial cuts the data
// into decode to it. The named ones each reach the model.Census shape
// they are named for, which TestRacesHBSeedsReachShapes holds them to.
var seeds = []struct {
	shape string // the Census counter the seed is there for, "" for the older ones
	trace []byte
}{
	{"", []byte{0, 0, 0x30, 0x00, 1, 0x00, 0x00}},                   // two reads, two threads
	{"", []byte{7, 8, 0x30, 0xe7, 9, 0x00, 0xe7, 8, 0x30, 0x07}},    // threads 8 and 9, straddling
	{"", []byte{0, 0, 0x30, 0, 0, 0x09, 0, 1, 0x08, 0, 1, 0x00, 0}}, // release → acquire orders
	{"", []byte{1, 0, 0x30, 0, 0, 0x07, 8, 1, 0x06, 8, 1, 0x00, 0}}, // publish → marked read orders
	// Thread 0 stores a word whole, thread 1 loads it whole: a race filed
	// from one history standing for eight bytes.
	{"WholeFast", []byte{0, 0x80, 0x03, 0x00, 0x81, 0x00, 0x00}},
	// ... then thread 1 stores byte 2 of it, and thread 0 byte 5.
	{"SplitAfterWhole", []byte{0, 0x80, 0x03, 0x00, 0x81, 0x00, 0x00, 0x01, 0x03, 0x02, 0x00, 0x13, 0x05}},
	// ... then thread 0 loads the split word whole.
	{"WholeAfterSplit", []byte{0, 0x80, 0x03, 0x00, 0x81, 0x00, 0x00, 0x01, 0x03, 0x02, 0x80, 0x10, 0x00}},
	// Four threads: 2 and 3 load the word whole (spilled readers), 0 stores
	// it whole, 1 stores one byte; then 2 loads byte 1 from another site,
	// which the store of byte 6 that follows must not see.
	{"SplitSpilled", []byte{2, 0x82, 0x00, 0x00, 0x83, 0x10, 0x00, 0x80, 0x03, 0x00, 0x01, 0x03, 0x03, 0x02, 0x20, 0x01, 0x00, 0x33, 0x06}},
	// Two adjacent words stored and loaded whole, the first split by a
	// one-byte store, then a four-byte load across their boundary.
	{"HalfSplit", []byte{0, 0x80, 0x03, 0x00, 0x81, 0x00, 0x00, 0x80, 0x13, 0x08, 0x81, 0x10, 0x08, 0x01, 0x03, 0x01, 0x01, 0x00, 0x66}},
	// Thread 0 copies three bytes; before the second, thread 1 writes the
	// first.
	{"Torn", []byte{0, 0x00, 0x0f, 0x00, 2, 1, 0x08, 0, 1}},
	// ... writes elsewhere instead: a switch inside the run, nothing torn.
	{"Untorn", []byte{0, 0x00, 0x0f, 0x00, 2, 1, 0x08, 1, 1}},
	// ... a stretch of 15 rows, the first a write into the copy: the run
	// goes on at the last row the lookahead reaches.
	{"Edge", []byte{0, 0x00, 0x0f, 0x00, 2, 1, 0x20, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
	// ... a stretch of 16 writes into the copy: the run ends before it.
	{"Beyond", []byte{0, 0x00, 0x0f, 0x00, 2, 1, 0x28, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}},
	// The torn copy after a store by thread 1: the first thread switch
	// follows a write, the second tears the copy.
	{"Torn", []byte{0, 0x01, 0x03, 0x00, 0x00, 0x0f, 0x00, 2, 1, 0x08, 0, 1}},
	// Threads 0 and 8: a copy of three 2-byte parts torn by a 4-byte store.
	{"Torn", []byte{0x40, 0x00, 0x1f, 0x20, 2, 1, 0x08, 0x60, 1}},
	// Three threads: a copy of four bytes with a stretch of five rows —
	// reads by the copy's instruction and writes elsewhere.
	{"Untorn", []byte{1, 0x00, 0x0f, 0x00, 3, 1, 0x18, 2, 1, 2, 1, 2, 1, 1}},
	// A copy with no switch in it, then thread 1 writes its first byte.
	{"Gated", []byte{0, 0x00, 0x0f, 0x00, 2, 1, 1, 1, 0x01, 0x03, 0x00}},
}

// twice is a seed's fuzz input: its trace two times over.
func twice(trace []byte) []byte { return append(append([]byte(nil), trace...), trace...) }

func FuzzTrialAnalysis(f *testing.F) {
	for _, seed := range seeds {
		f.Add(twice(seed.trace))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			return
		}
		checkTrial(t, new(Scratch), data, nil)
	})
}

// TestRacesHBSeedsReachShapes: each named seed reaches its shape, and
// each but the untorn copy reports a race.
func TestRacesHBSeedsReachShapes(t *testing.T) {
	for _, seed := range seeds {
		var c model.Census
		checkTrial(t, new(Scratch), twice(seed.trace), &c)
		if seed.shape == "" {
			continue
		}
		if n := reflect.ValueOf(c).FieldByName(seed.shape); !n.IsValid() || n.Int() == 0 || c.Races == 0 && seed.shape != "Untorn" {
			t.Errorf("seed %q: shape not reached or no race: %+v", seed.shape, c)
		}
	}
}

// BenchmarkRacesHBAllUnaligned is the detector's worst case since its
// histories went word-granular: two threads racing on 64 words through
// accesses that all cover part of a word or straddle two, so every word is
// split once per trace and every access walks per-byte histories, as all
// did before. Compare with the parent commit; the aligned twin shows what
// the common case saves.
func BenchmarkRacesHBAllUnaligned(b *testing.B) { benchRacesHB(b, false) }

// BenchmarkRacesHBAllAligned is the same trace with every access the
// aligned 8-byte access of its first word.
func BenchmarkRacesHBAllAligned(b *testing.B) { benchRacesHB(b, true) }

func benchRacesHB(b *testing.B, aligned bool) {
	tr := &trace.Trace{}
	for i := 0; i < 2048; i++ {
		a := trace.Access{Thread: i & 1, Kind: trace.Kind(i >> 1 & 1), Ins: model.Ins[i%len(model.Ins)],
			Addr: 0x1000 + uint64(i*37%512) | 1, Size: uint8(2 + i%7)}
		if aligned {
			a.Addr, a.Size = a.Addr&^7, 8
		}
		tr.Record(a.Thread, a.Ins, a.Kind, a.Addr, a.Size, a.Val, a.Atomic, a.Marked, a.Stack, a.RCU, a.Locks)
	}
	var sc Scratch
	findRacesHB(&sc, tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		findRacesHB(&sc, tr)
	}
}

// findRacesHB is FindRacesHB on sc's state, without the copy: the slice is
// overwritten by the next call.
func findRacesHB(sc *Scratch, tr *trace.Trace) []RaceReport {
	sc.view.Build(tr)
	return sc.hb.findRaces(&sc.view, nil)
}
