package detect

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"snowboard/internal/cover"
	"snowboard/internal/trace"
)

var diffIns = []trace.Ins{
	dIns1, dIns2, dIns3, dIns4,
	trace.DefIns("detect_test:r2"), trace.DefIns("detect_test:w3"),
}

// genTrace decodes a small trace from fuzz bytes, three per access: thread,
// operation, address. The first byte picks the thread count (2–9) and, with
// bit 6, spreads the ids eight apart, up to 64: past the inline readers and
// past the width of the view's thread mask, some a multiple of it apart. The operations cover what the
// detector distinguishes — plain and marked reads and writes of 1–8 bytes,
// lock acquire/release, publication (marked store), stack accesses. Bit 7
// of an access's thread byte makes it the aligned 8-byte access of its
// word — half of all accesses, as a kernel's are nearly all — so words
// gather whole-word history before a partial access splits them. The
// regions cover what the view's private-word skip must get right:
//
//   - 0x1000: four adjacent words every thread reaches, at offsets that
//     straddle them; stack and lock-word (atomic) accesses land here too;
//   - 0x2000 + 0x100·thread: words only that thread touches, straddled by
//     nobody else — private, or shared only through a straddling access;
//   - 0x3000 + 0x20·k: a word only thread k touches followed by one every
//     thread does, so an unaligned access of k's covers one of each;
//   - a "far" operation over up to 256 words, so a long trace grows the
//     tables mid-walk.
func genTrace(data []byte) *trace.Trace {
	tr := &trace.Trace{}
	if len(data) == 0 {
		return tr
	}
	threads, stride := 2+int(data[0])%8, 1+7*int(data[0]>>6&1)
	for data = data[1:]; len(data) >= 3; data = data[3:] {
		slot, whole, op, sel := int(data[0]&0x7f)%threads, data[0]&0x80 != 0, data[1], data[2]
		th, off := slot*stride, uint64(sel&0x1f)
		a := trace.Access{
			Thread: th,
			Ins:    diffIns[int(op>>4)%len(diffIns)],
			Addr:   0x1000 + off,
			Size:   1 + (sel>>5)&7,
			Val:    uint64(sel),
		}
		switch op >> 6 {
		case 2:
			a.Addr = 0x2000 + 0x100*uint64(slot) + off
		case 3:
			a.Addr = 0x3000 + 0x20*uint64(slot) + off&0xf
			if off >= 16 { // the shared word of some thread's pair
				a.Addr = 0x3008 + 0x20*(off&7%uint64(threads))
			}
		}
		if whole {
			a.Addr, a.Size = a.Addr&^7, 8
		}
		lock := 0x800 + uint64(sel&3)*8
		if sel&4 != 0 {
			lock = 0x1000 + uint64(sel&3)*8 // a lock word among the shared data
		}
		switch op & 0xf {
		case 0, 1, 2:
			a.Kind = trace.Read
		case 3, 4, 5:
			a.Kind = trace.Write
		case 6:
			a.Kind, a.Marked = trace.Read, true
		case 7:
			a.Kind, a.Marked = trace.Write, true
		case 8: // acquire
			a.Kind, a.Atomic, a.Addr, a.Size, a.Val = trace.Write, true, lock, 8, 1
		case 9: // release
			a.Kind, a.Atomic, a.Addr, a.Size, a.Val = trace.Write, true, lock, 8, 0
		case 10:
			a.Kind, a.Atomic, a.Addr, a.Size = trace.Read, true, lock, 8
		case 11:
			a.Kind, a.Stack = trace.Write, true
		case 12:
			a.Kind, a.Stack, a.Marked = trace.Write, true, true
		case 13: // far read
			a.Kind, a.Addr = trace.Read, 0x4000+uint64(sel)*8+uint64(op>>6)
		default: // far write
			a.Kind, a.Addr = trace.Write, 0x4000+uint64(sel)*8+uint64(op>>6)
		}
		if whole && op&0xf >= 13 {
			a.Addr &^= 7
		}
		tr.Record(a.Thread, a.Ins, a.Kind, a.Addr, a.Size, a.Val, a.Atomic, a.Marked, a.Stack, a.RCU, a.Locks)
	}
	return tr
}

// teeth counts, over the generated traces, the shapes the private-word skip
// and the word-granular histories have to get right; a generator that
// stops producing one has lost its teeth.
type teeth struct {
	skipped, analysed int // data accesses the view calls private / shared
	straddleOnly      int // straddling accesses over two words no second thread touches
	mixed             int // straddling accesses over one such word and one shared word
	wide              int // data accesses by thread ids past the view's mask
	stack, atomic     int // stack / lock-word accesses to words data accesses share

	// Of the analysed accesses. A word is whole until the first of them to
	// cover only part of it, split from then on.
	wholeFast       int // aligned 8-byte accesses to a word still whole
	splitAfterWhole int // partial accesses that split a word with whole-word history
	wholeAfterSplit int // aligned 8-byte accesses to a split word
	splitSpilled    int // splits of a word that readers past the inline ones had read whole
	halfSplit       int // straddling accesses over one split word and one still whole
}

func (k *teeth) add(v *trace.View) {
	tr := v.Trace()
	words := func(i int) (lo, hi uint64) { return tr.AddrAt(i) >> 3, (tr.EndAt(i) - 1) >> 3 }
	owners := make(map[uint64]map[int]bool) // word → threads of its data accesses
	for i := 0; i < tr.Len(); i++ {
		if tr.StackAt(i) || tr.AtomicAt(i) {
			continue
		}
		lo, hi := words(i)
		for _, w := range []uint64{lo, hi} {
			if owners[w] == nil {
				owners[w] = make(map[int]bool)
			}
			owners[w][tr.ThreadAt(i)] = true
		}
	}
	type history struct{ whole, split, spilled bool }
	hist := make(map[uint64]*history)
	for i := 0; i < tr.Len(); i++ {
		lo, hi := words(i)
		one, other := len(owners[lo]) > 1, len(owners[hi]) > 1
		switch {
		case tr.StackAt(i):
			k.stack += btoi(one)
		case tr.AtomicAt(i):
			k.atomic += btoi(one)
		default:
			k.analysed += btoi(v.Shared(i))
			k.skipped += btoi(!v.Shared(i))
			k.wide += btoi(tr.ThreadAt(i) >= 32)
			k.straddleOnly += btoi(lo != hi && !one && !other)
			k.mixed += btoi(lo != hi && one != other)
		}
		if !v.Shared(i) {
			continue
		}
		for _, w := range []uint64{lo, hi} {
			if hist[w] == nil {
				hist[w] = &history{}
			}
		}
		if tr.AddrAt(i)&7 == 0 && tr.SizeAt(i) == 8 {
			h := hist[lo]
			k.wholeFast += btoi(!h.split)
			k.wholeAfterSplit += btoi(h.split)
			h.whole = true
			h.spilled = h.spilled || (!h.split && !tr.IsWriteAt(i) && tr.ThreadAt(i) >= inlineReaders)
			continue
		}
		k.halfSplit += btoi(hist[lo].split != hist[hi].split)
		for _, h := range []*history{hist[lo], hist[hi]} {
			k.splitAfterWhole += btoi(!h.split && h.whole)
			k.splitSpilled += btoi(!h.split && h.spilled)
			h.split = true
		}
	}
}

func (k teeth) lost() bool {
	return k.skipped == 0 || k.analysed == 0 || k.straddleOnly == 0 || k.mixed == 0 ||
		k.wide == 0 || k.stack == 0 || k.atomic == 0 ||
		k.wholeFast == 0 || k.splitAfterWhole == 0 || k.wholeAfterSplit == 0 || k.splitSpilled == 0 || k.halfSplit == 0
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// checkHBEqualsReference runs both halves of data, as two consecutive
// traces, through one scratch (so the second proves the reset) and
// compares each against the map-based reference: same reports, same order.
// The walk is then repeated with a coverage walker riding it, which must
// change no report and collect what the standalone coverage walk does.
// k, when set, takes the census of what the traces exercised.
func checkHBEqualsReference(t *testing.T, sc *Scratch, data []byte, k *teeth) {
	t.Helper()
	var w cover.Walker
	half := len(data) / 2
	for _, part := range [][]byte{data[:half], data[half:]} {
		tr := genTrace(part)
		want, got := refFindRacesHB(tr), slices.Clone(findRacesHB(sc, tr))
		if k != nil {
			k.add(&sc.view)
		}
		if riding := sc.hb.findRaces(&sc.view, &w); !slices.Equal(riding, got) {
			t.Fatalf("trace %v:\nalone  %+v\nriding %+v", tr, got, riding)
		}
		ridC, ridS, soloC, soloS := cover.New(), cover.NewSegments(), cover.New(), cover.NewSegments()
		w.Fold(ridC, ridS)
		if soloC.AddTrace(tr) != ridC.Len() || soloS.AddTrace(tr) != ridS.Len() ||
			!reflect.DeepEqual(ridS.Export(), soloS.Export()) || ridC.Merge(soloC) != 0 {
			t.Fatalf("trace %v: the riding walker's coverage differs from the standalone walk's", tr)
		}
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trace %v:\nreference %+v\nflat      %+v", tr, want, got)
		}
	}
}

func TestRacesHBFlatEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var sc Scratch
	reports, k := 0, teeth{}
	for iter := 0; iter < 3000; iter++ {
		data := make([]byte, 2+rng.Intn(60)*3)
		if iter%50 == 0 {
			data = make([]byte, 2+1200*3) // long: far accesses outgrow the initial table
		}
		rng.Read(data)
		checkHBEqualsReference(t, &sc, data, &k)
		reports += len(sc.hb.out)
	}
	t.Logf("%d reports; %+v", reports, k)
	if reports == 0 || k.lost() {
		t.Fatalf("generator lost its teeth: %d reports, %+v", reports, k)
	}
}

// hbSeeds are the FuzzRacesHB corpus: each a trace of genTrace's encoding,
// given twice over so that both halves checkHBEqualsReference cuts the data
// into decode to it. The named ones each reach one shape of the
// word-granular histories, which TestRacesHBSeedsReachShapes holds them to.
var hbSeeds = []struct {
	shape string // the teeth counter the seed is there for, "" for the older ones
	trace []byte
}{
	{"", []byte{0, 0, 0x30, 0x00, 1, 0x00, 0x00}},                   // write then read, two threads
	{"", []byte{7, 8, 0x30, 0xe7, 9, 0x00, 0xe7, 8, 0x30, 0x07}},    // threads 8 and 9, straddling
	{"", []byte{0, 0, 0x30, 0, 0, 0x09, 0, 1, 0x08, 0, 1, 0x00, 0}}, // release → acquire orders
	{"", []byte{1, 0, 0x30, 0, 0, 0x07, 8, 1, 0x06, 8, 1, 0x00, 0}}, // publish → marked read orders
	// Thread 0 stores a word whole, thread 1 loads it whole: a race filed
	// from one history standing for eight bytes.
	{"wholeFast", []byte{0, 0x80, 0x03, 0x00, 0x81, 0x00, 0x00}},
	// ... then thread 1 stores byte 2 of it, and thread 0 byte 5.
	{"splitAfterWhole", []byte{0, 0x80, 0x03, 0x00, 0x81, 0x00, 0x00, 0x01, 0x03, 0x02, 0x00, 0x13, 0x05}},
	// ... then thread 0 loads the split word whole.
	{"wholeAfterSplit", []byte{0, 0x80, 0x03, 0x00, 0x81, 0x00, 0x00, 0x01, 0x03, 0x02, 0x80, 0x10, 0x00}},
	// Four threads: 2 and 3 load the word whole (spilled readers), 0 stores
	// it whole, 1 stores one byte; then 2 loads byte 1 from another site,
	// which the store of byte 6 that follows must not see.
	{"splitSpilled", []byte{2, 0x82, 0x00, 0x00, 0x83, 0x10, 0x00, 0x80, 0x03, 0x00, 0x01, 0x03, 0x03, 0x02, 0x20, 0x01, 0x00, 0x33, 0x06}},
	// Two adjacent words stored and loaded whole, the first split by a
	// one-byte store, then a four-byte load across their boundary.
	{"halfSplit", []byte{0, 0x80, 0x03, 0x00, 0x81, 0x00, 0x00, 0x80, 0x13, 0x08, 0x81, 0x10, 0x08, 0x01, 0x03, 0x01, 0x01, 0x00, 0x66}},
}

// twice is a seed's fuzz input: its trace two times over.
func twice(trace []byte) []byte { return append(append([]byte(nil), trace...), trace...) }

func FuzzRacesHB(f *testing.F) {
	for _, seed := range hbSeeds {
		f.Add(twice(seed.trace))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			return
		}
		checkHBEqualsReference(t, new(Scratch), data, nil)
	})
}

func TestRacesHBSeedsReachShapes(t *testing.T) {
	for _, seed := range hbSeeds {
		var sc Scratch
		var k teeth
		checkHBEqualsReference(t, &sc, twice(seed.trace), &k)
		reached := map[string]int{"": 1, "wholeFast": k.wholeFast, "splitAfterWhole": k.splitAfterWhole,
			"wholeAfterSplit": k.wholeAfterSplit, "splitSpilled": k.splitSpilled, "halfSplit": k.halfSplit}
		if n, ok := reached[seed.shape]; !ok || n == 0 || len(sc.hb.out) == 0 && seed.shape != "" {
			t.Errorf("seed %q: shape reached %d times, %d reports: %+v", seed.shape, n, len(sc.hb.out), k)
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
		a := trace.Access{Thread: i & 1, Kind: trace.Kind(i >> 1 & 1), Ins: diffIns[i%len(diffIns)],
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
