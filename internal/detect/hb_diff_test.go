package detect

import (
	"math/rand"
	"reflect"
	"testing"

	"snowboard/internal/trace"
)

var diffIns = []trace.Ins{
	dIns1, dIns2, dIns3, dIns4,
	trace.DefIns("detect_test:r2"), trace.DefIns("detect_test:w3"),
}

// genTrace decodes a small trace from fuzz bytes, three per access: thread,
// operation, address. The first byte picks the thread count (2–9). The
// operations cover what the detector distinguishes: plain and marked reads
// and writes of 1–8 bytes at offsets that straddle 8-byte words, lock
// acquire/release on a few lock words, publication (marked store) and
// stack accesses; a "far" operation spreads over up to 256 words so a long
// trace grows the shadow table mid-walk.
func genTrace(data []byte) *trace.Trace {
	tr := &trace.Trace{}
	if len(data) == 0 {
		return tr
	}
	threads := 2 + int(data[0])%8
	for data = data[1:]; len(data) >= 3; data = data[3:] {
		th, op, sel := int(data[0])%threads, data[1], data[2]
		a := trace.Access{
			Thread: th,
			Ins:    diffIns[int(op>>4)%len(diffIns)],
			Addr:   0x1000 + uint64(sel&0x1f), // four adjacent words
			Size:   1 + (sel>>5)&7,
			Val:    uint64(sel),
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
			a.Kind, a.Atomic, a.Addr, a.Size, a.Val = trace.Write, true, 0x800+uint64(sel&3)*8, 8, 1
		case 9: // release
			a.Kind, a.Atomic, a.Addr, a.Size, a.Val = trace.Write, true, 0x800+uint64(sel&3)*8, 8, 0
		case 10:
			a.Kind, a.Atomic, a.Addr, a.Size = trace.Read, true, 0x800+uint64(sel&3)*8, 8
		case 11:
			a.Kind, a.Stack = trace.Write, true
		case 12:
			a.Kind, a.Stack, a.Marked = trace.Write, true, true
		case 13: // far read
			a.Kind, a.Addr = trace.Read, 0x4000+uint64(sel)*8+uint64(op>>6)
		default: // far write
			a.Kind, a.Addr = trace.Write, 0x4000+uint64(sel)*8+uint64(op>>6)
		}
		tr.Append(a)
	}
	return tr
}

// checkHBEqualsReference runs both halves of data, as two consecutive
// traces, through one scratch (so the second proves the reset) and
// compares each against the map-based reference: same reports, same order.
func checkHBEqualsReference(t *testing.T, sc *Scratch, data []byte) {
	t.Helper()
	half := len(data) / 2
	for _, part := range [][]byte{data[:half], data[half:]} {
		tr := genTrace(part)
		want, got := refFindRacesHB(tr), sc.FindRacesHB(tr)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trace %v:\nreference %+v\nflat      %+v", tr.Accesses(), want, got)
		}
	}
}

func TestRacesHBFlatEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var sc Scratch
	reports, grown := 0, false
	for iter := 0; iter < 3000; iter++ {
		data := make([]byte, 2+rng.Intn(60)*3)
		if iter%50 == 0 {
			data = make([]byte, 2+1200*3) // long: far accesses outgrow the initial table
		}
		rng.Read(data)
		checkHBEqualsReference(t, &sc, data)
		reports += len(sc.hb.out)
		grown = grown || sc.hb.bytes.Len() > 64
	}
	if reports == 0 || !grown {
		t.Fatalf("generator lost its teeth: %d reports, table grown: %v", reports, grown)
	}
}

func FuzzRacesHB(f *testing.F) {
	f.Add([]byte{0, 0, 0x30, 0x00, 1, 0x00, 0x00})                   // write then read, two threads
	f.Add([]byte{7, 8, 0x30, 0xe7, 9, 0x00, 0xe7, 8, 0x30, 0x07})    // threads 8 and 9, straddling
	f.Add([]byte{0, 0, 0x30, 0, 0, 0x09, 0, 1, 0x08, 0, 1, 0x00, 0}) // release → acquire orders
	f.Add([]byte{1, 0, 0x30, 0, 0, 0x07, 8, 1, 0x06, 8, 1, 0x00, 0}) // publish → marked read orders
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			return
		}
		checkHBEqualsReference(t, new(Scratch), data)
	})
}
