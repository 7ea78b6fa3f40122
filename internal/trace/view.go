package trace

import "slices"

// View is the per-trial index the post-trial analyses share. One pass over
// a trial's trace interns the 8-byte words its data accesses — neither
// stack nor lock-word traffic (§4.4.1) — touch into dense ids, with one
// Shadow probe per access, and records which threads touched each word. An
// analysis then keeps its per-byte state in flat arrays indexed by word id
// (WordCells) instead of hashing addresses again, and skips outright every
// access whose words a single thread touched: such an access can neither
// race nor communicate.
//
// Storage is kept across trials, so a warm Build does not allocate. The
// zero value is ready to use; a View is not safe for concurrent use.
type View struct {
	tr      *Trace
	words   Shadow[uint32] // word address → 1 + id
	ids     [][2]uint32    // per access: id of its first and, if it straddles, second word
	threads []uint32       // per id: bit t set when thread t touched the word

	// The word interned last and its id: a read-modify-write of one
	// counter, or a walk over one word, is rows in a row on the same word.
	lastWord uint64
	lastID   uint32
}

// NoWord is the word id of an access the view did not intern.
const NoWord = ^uint32(0)

// allThreads marks a word shared whatever touched it. It keeps the
// single-thread test exact where the mask cannot: thread ids past its
// width, and accesses straddling two words, of which a reader of the view
// consults only the first.
const allThreads = ^uint32(0)

// Build indexes tr, replacing whatever the view held.
func (v *View) Build(tr *Trace) {
	v.tr = tr
	v.words.Reset()
	v.ids = slices.Grow(v.ids[:0], tr.Len())[:tr.Len()]
	v.threads = v.threads[:0]
	v.lastWord = ^uint64(0) // no word: a word is an address shifted right by 3
	for i := range tr.rows {
		r := &tr.rows[i]
		m := r.meta
		id := [2]uint32{NoWord, NoWord}
		if m&(MetaStack|MetaAtomic) == 0 {
			first := r.addr >> 3
			last := (r.addr + uint64(m&metaSize) - 1) >> 3
			mask := allThreads
			if t := m >> metaThreadShift; t < 32 && first == last {
				mask = 1 << t
			}
			id[0] = v.intern(first, mask)
			if first != last {
				id[1] = v.intern(last, mask)
			}
		}
		v.ids[i] = id
	}
}

func (v *View) intern(word uint64, mask uint32) uint32 {
	if word != v.lastWord {
		slot := v.words.Slot(word)
		if *slot == 0 {
			v.threads = append(v.threads, 0)
			*slot = uint32(len(v.threads))
		}
		v.lastWord, v.lastID = word, *slot-1
	}
	v.threads[v.lastID] |= mask
	return v.lastID
}

// Trace returns the trace the view was built over.
func (v *View) Trace() *Trace { return v.tr }

// Words returns how many distinct words the view interned; ids run from 0.
func (v *View) Words() int { return len(v.threads) }

// WordsAt returns the ids of the words the i-th access touches: its first
// and, when it straddles a word boundary, its second (NoWord otherwise).
// Both are NoWord for a stack or lock-word access.
func (v *View) WordsAt(i int) (first, second uint32) { return v.ids[i][0], v.ids[i][1] }

// WordOf returns the id of the word holding addr; NoWord if no access did.
func (v *View) WordOf(addr uint64) uint32 {
	if id := v.words.Get(addr >> 3); id != nil {
		return *id - 1
	}
	return NoWord
}

// Shared reports whether the i-th access is a data access to memory that
// more than one thread touched during the trial. Only such accesses can be
// one side of a race or of a cross-thread communication.
func (v *View) Shared(i int) bool {
	id := v.ids[i][0]
	if id == NoWord {
		return false
	}
	m := v.threads[id]
	return m&(m-1) != 0
}

// WordCells is the per-trial state of an analysis that keeps a history per
// byte of shared memory, indexed by the word ids of a View. Nearly every
// shared data access of a kernel is an aligned 8-byte load or store, and
// while every access to a word has covered all of it, its eight bytes have
// one history: such a word keeps a single T. The first access to cover
// only part of a word splits it into eight copies of that T, one per byte,
// which it keeps for the rest of the trial. Storage is kept across trials.
type WordCells[T any] struct {
	cells []T      // the words' single cells by id, then eight cells per split word
	split []uint32 // per id: where in cells the word's eight start; 0 = not split
}

// Reset empties c and sizes it for the words of v.
func (c *WordCells[T]) Reset(v *View) {
	n := v.Words()
	c.cells = slices.Grow(c.cells[:0], n)[:n]
	clear(c.cells)
	c.split = slices.Grow(c.split[:0], n)[:n]
	clear(c.split)
}

// At returns the cells an access over bytes [b, end) reads and updates in
// word id, which holds b, and how many bytes they stand for: one cell per
// byte up to end or the word's last — or, when the access covers the whole
// of a word not split so far, the word's single cell for all eight. A
// caller that visits the cells in order and leaves equal cells equal gets
// what a cell per byte would have given it. fresh reports that the call
// split the word, for a T that owns storage a plain copy must not share
// (Bytes returns the eight copies).
func (c *WordCells[T]) At(id uint32, b, end uint64) (cells []T, n uint64, fresh bool) {
	n = min(end, b|7+1) - b
	off := c.split[id]
	if off == 0 {
		if n == 8 {
			return c.cells[id : id+1], 8, false
		}
		off, fresh = c.splitWord(id), true
	}
	at := uint64(off) + b&7
	return c.cells[at : at+n], n, fresh
}

func (c *WordCells[T]) splitWord(id uint32) uint32 {
	off := len(c.cells)
	c.cells = slices.Grow(c.cells, 8)[:off+8]
	for k := off; k < off+8; k++ {
		c.cells[k] = c.cells[id]
	}
	c.split[id] = uint32(off)
	return uint32(off)
}

// Bytes returns the eight per-byte cells of a split word.
func (c *WordCells[T]) Bytes(id uint32) []T {
	off := c.split[id]
	return c.cells[off : off+8]
}
