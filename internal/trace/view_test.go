package trace

import (
	"math/rand"
	"testing"
)

// viewTrace decodes a trace from fuzz bytes, three per access: thread
// (0–47, so past the 32-bit thread mask), flags and size, address (32
// adjacent words, any offset, so accesses straddle). The top flag bit makes
// the access the aligned 8-byte one of its word.
func viewTrace(data []byte) *Trace {
	tr := &Trace{}
	for ; len(data) >= 3; data = data[3:] {
		a := Access{
			Thread: int(data[0]) % 48,
			Kind:   Kind(data[1] >> 3 & 1),
			Size:   1 + data[1]&7,
			Stack:  data[1]>>4&7 == 0,
			Atomic: data[1]>>4&7 == 1,
			Addr:   0x1000 + uint64(data[2]),
		}
		if data[1]&0x80 != 0 {
			a.Addr, a.Size = a.Addr&^7, 8
		}
		tr.Record(a.Ins, a.Addr, a.Val, a.Meta())
	}
	return tr
}

// checkWordCells walks tr's data accesses through a WordCells the way the
// post-trial analyses do — each access reads the cells of its bytes, then
// stamps them — next to a model with a cell per byte address. Every cell At
// hands out must hold what the model holds for each byte it stands for; at
// the end every split word's bytes must too. It returns how many accesses
// got one cell for a whole word, and how many words were split.
func checkWordCells(t *testing.T, c *WordCells[int], v *View, tr *Trace) (whole, splits int) {
	t.Helper()
	c.Reset(v)
	model := make(map[uint64]int)
	wordOf := make(map[uint32]uint64)
	for i := 0; i < tr.Len(); i++ {
		id, second := v.WordsAt(i)
		if id == NoWord {
			continue
		}
		for b, end := tr.AddrAt(i), tr.EndAt(i); b < end; id = second {
			wordOf[id] = b >> 3
			cells, n, fresh := c.At(id, b, end)
			splits += btoi(fresh)
			switch {
			case len(cells) == 1 && n == 8:
				whole++
			case uint64(len(cells)) != n:
				t.Fatalf("access %d at byte %#x: %d cells for %d bytes", i, b, len(cells), n)
			}
			for k := uint64(0); k < n; k++ {
				cell := cells[0] // of the whole word, or
				if len(cells) > 1 {
					cell = cells[k]
				}
				if cell != model[b+k] {
					t.Fatalf("access %d: the cell for byte %#x (of %d for %d bytes) holds %d, the model %d", i, b+k, len(cells), n, cell, model[b+k])
				}
			}
			for k := range cells {
				cells[k] = i + 1
			}
			for k := uint64(0); k < n; k++ {
				model[b+k] = i + 1
			}
			b += n
		}
	}
	for id, word := range wordOf {
		if c.split[id] == 0 {
			continue
		}
		for k, cell := range c.Bytes(id) {
			if cell != model[word<<3+uint64(k)] {
				t.Fatalf("split word %#x byte %d holds %d, the model %d", word, k, cell, model[word<<3+uint64(k)])
			}
		}
	}
	return whole, splits
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
	var cells WordCells[int]
	shared, private, whole, splits := 0, 0, 0, 0
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
		w, sp := checkWordCells(t, &cells, &v, tr)
		shared, private, whole, splits = shared+s, private+p, whole+w, splits+sp
	}
	if shared == 0 || private == 0 || whole == 0 || splits == 0 {
		t.Fatalf("generator lost its teeth: %d shared and %d private accesses, %d whole-word accesses on one cell, %d words split",
			shared, private, whole, splits)
	}
}

func FuzzTraceView(f *testing.F) {
	f.Add([]byte{0, 0x27, 0x00, 1, 0x27, 0x40})                 // two threads, two words: private
	f.Add([]byte{0, 0x27, 0x00, 1, 0x2f, 0x04})                 // same word: shared
	f.Add([]byte{0, 0x27, 0x05, 1, 0x20, 0x10, 40, 0x20, 0x20}) // a straddler; a thread past the mask
	f.Add([]byte{0, 0x07, 0x00, 1, 0x17, 0x00, 0, 0x27, 0x00})  // stack and atomic accesses to a data word
	f.Add([]byte{0, 0x27, 0x00, 32, 0x27, 0x00})                // threads one mask width apart
	f.Add([]byte{0, 0xa7, 0x08, 1, 0xa0, 0x0b, 1, 0x21, 0x0e})  // a word accessed whole twice, then split by a straddler
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			return
		}
		var v View
		var cells WordCells[int]
		half := len(data) / 2
		for _, part := range [][]byte{data[:half], data[half:]} {
			tr := viewTrace(part)
			v.Build(tr)
			checkView(t, &v, tr)
			checkWordCells(t, &cells, &v, tr)
		}
	})
}
