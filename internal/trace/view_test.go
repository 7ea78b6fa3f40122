package trace

import (
	"math/rand"
	"testing"
)

// viewTrace decodes a trace from fuzz bytes, three per access: thread
// (0–47, so past the 32-bit thread mask), flags and size, address (32
// adjacent words, any offset, so accesses straddle).
func viewTrace(data []byte) *Trace {
	tr := &Trace{}
	for ; len(data) >= 3; data = data[3:] {
		tr.Append(Access{
			Thread: int(data[0]) % 48,
			Kind:   Kind(data[1] >> 3 & 1),
			Size:   1 + data[1]&7,
			Stack:  data[1]>>4&7 == 0,
			Atomic: data[1]>>4&7 == 1,
			Addr:   0x1000 + uint64(data[2]),
		})
	}
	return tr
}

// checkView compares v, built over tr, with brute force: the set of threads
// whose data accesses touched each byte address, and the same per word.
func checkView(t *testing.T, v *View, tr *Trace) (shared, private int) {
	t.Helper()
	byByte := make(map[uint64]map[int]bool)
	byWord := make(map[uint64]map[int]bool)
	widened := make(map[uint64]bool) // words of straddling accesses or of threads past the mask
	touch := func(m map[uint64]map[int]bool, k uint64, thread int) {
		if m[k] == nil {
			m[k] = make(map[int]bool)
		}
		m[k][thread] = true
	}
	for i := 0; i < tr.Len(); i++ {
		if tr.StackAt(i) || tr.AtomicAt(i) {
			continue
		}
		lo, hi := tr.AddrAt(i)>>3, (tr.EndAt(i)-1)>>3
		for b := tr.AddrAt(i); b < tr.EndAt(i); b++ {
			touch(byByte, b, tr.ThreadAt(i))
			touch(byWord, b>>3, tr.ThreadAt(i))
		}
		if lo != hi || tr.ThreadAt(i) >= 32 {
			widened[lo], widened[hi] = true, true
		}
	}
	if v.Trace() != tr || v.Words() != len(byWord) {
		t.Fatalf("view of %d words over %p, want %d over %p", v.Words(), v.Trace(), len(byWord), tr)
	}
	idOf, wordOf := make(map[uint64]uint32), make(map[uint32]uint64)
	for i := 0; i < tr.Len(); i++ {
		first, second := v.WordsAt(i)
		if tr.StackAt(i) || tr.AtomicAt(i) {
			if first != NoWord || second != NoWord || v.Shared(i) {
				t.Fatalf("access %d (stack or atomic) is interned: %d, %d, shared %v", i, first, second, v.Shared(i))
			}
			continue
		}
		lo, hi := tr.AddrAt(i)>>3, (tr.EndAt(i)-1)>>3
		if (second == NoWord) != (lo == hi) {
			t.Fatalf("access %d [%#x,%#x): second word id %d", i, tr.AddrAt(i), tr.EndAt(i), second)
		}
		for _, w := range []struct {
			word uint64
			id   uint32
		}{{lo, first}, {hi, second}}[:1+btoi(lo != hi)] {
			if int(w.id) >= v.Words() {
				t.Fatalf("access %d: word id %d of %d", i, w.id, v.Words())
			}
			if id, ok := idOf[w.word]; ok && id != w.id {
				t.Fatalf("word %#x has ids %d and %d", w.word, id, w.id)
			}
			if word, ok := wordOf[w.id]; ok && word != w.word {
				t.Fatalf("id %d names words %#x and %#x", w.id, word, w.word)
			}
			idOf[w.word], wordOf[w.id] = w.id, w.word
		}
		// Exact at word granularity, with the documented widenings.
		want := len(byWord[lo]) > 1 || len(byWord[hi]) > 1 || widened[lo] || widened[hi]
		if v.Shared(i) != want {
			t.Fatalf("access %d [%#x,%#x) by thread %d: shared %v, want %v", i, tr.AddrAt(i), tr.EndAt(i), tr.ThreadAt(i), v.Shared(i), want)
		}
		// Hence never private when a second thread touched one of its bytes.
		for b := tr.AddrAt(i); b < tr.EndAt(i); b++ {
			if len(byByte[b]) > 1 && !v.Shared(i) {
				t.Fatalf("access %d is private but byte %#x was touched by %d threads", i, b, len(byByte[b]))
			}
		}
		shared += btoi(v.Shared(i))
		private += btoi(!v.Shared(i))
	}
	return shared, private
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestViewEqualsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var v View // one view throughout: every Build must replace the last
	shared, private := 0, 0
	for iter := 0; iter < 2000; iter++ {
		data := make([]byte, 3*rng.Intn(80))
		rng.Read(data)
		if iter%3 == 0 { // two threads, mostly apart: private words
			for i := 0; i+2 < len(data); i += 3 {
				data[i] &= 1
				data[i+2] = data[i+2]&0x3f | data[i]<<7
			}
		}
		tr := viewTrace(data)
		v.Build(tr)
		s, p := checkView(t, &v, tr)
		shared, private = shared+s, private+p
	}
	if shared == 0 || private == 0 {
		t.Fatalf("generator lost its teeth: %d shared and %d private accesses", shared, private)
	}
}

func FuzzTraceView(f *testing.F) {
	f.Add([]byte{0, 0x27, 0x00, 1, 0x27, 0x40})                 // two threads, two words: private
	f.Add([]byte{0, 0x27, 0x00, 1, 0x2f, 0x04})                 // same word: shared
	f.Add([]byte{0, 0x27, 0x05, 1, 0x20, 0x10, 40, 0x20, 0x20}) // a straddler; a thread past the mask
	f.Add([]byte{0, 0x07, 0x00, 1, 0x17, 0x00, 0, 0x27, 0x00})  // stack and atomic accesses to a data word
	f.Add([]byte{0, 0x27, 0x00, 32, 0x27, 0x00})                // threads one mask width apart
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			return
		}
		var v View
		half := len(data) / 2
		for _, part := range [][]byte{data[:half], data[half:]} {
			tr := viewTrace(part)
			v.Build(tr)
			checkView(t, &v, tr)
		}
	})
}
