package trace

import "slices"

// View is the per-trial index the post-trial analyses share. One pass over
// a trial's trace interns the 8-byte words its data accesses — neither
// stack nor lock-word traffic (§4.4.1) — touch into dense ids, with one
// Shadow probe per access, and records which threads touched each word. An
// analysis then keeps its per-byte state in flat arrays indexed by word id
// (Cells) instead of hashing addresses again, and skips outright every
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
	v.ids = slices.Grow(v.ids[:0], tr.Len())
	v.threads = v.threads[:0]
	for i, m := range tr.meta {
		id := [2]uint32{NoWord, NoWord}
		if m&(metaStack|metaAtomic) == 0 {
			first := tr.addrs[i] >> 3
			last := (tr.addrs[i] + uint64(m&metaSizeMask) - 1) >> 3
			mask := allThreads
			if t := m >> metaThreadShift; t < 32 && first == last {
				mask = 1 << t
			}
			id[0] = v.intern(first, mask)
			if first != last {
				id[1] = v.intern(last, mask)
			}
		}
		v.ids = append(v.ids, id)
	}
}

func (v *View) intern(word uint64, mask uint32) uint32 {
	slot := v.words.Slot(word)
	if *slot == 0 {
		v.threads = append(v.threads, 0)
		*slot = uint32(len(v.threads))
	}
	id := *slot - 1
	v.threads[id] |= mask
	return id
}

// Trace returns the trace the view was built over.
func (v *View) Trace() *Trace { return v.tr }

// Words returns how many distinct words the view interned; ids run from 0.
func (v *View) Words() int { return len(v.threads) }

// WordsAt returns the ids of the words the i-th access touches: its first
// and, when it straddles a word boundary, its second (NoWord otherwise).
// Both are NoWord for a stack or lock-word access.
func (v *View) WordsAt(i int) (first, second uint32) { return v.ids[i][0], v.ids[i][1] }

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

// Cells returns cells resized to one zeroed [8]T — a T per byte — for every
// word of v, reusing its storage: the per-trial reset of an analysis that
// indexes its state by word id.
func Cells[T any](v *View, cells [][8]T) [][8]T {
	cells = slices.Grow(cells[:0], v.Words())[:v.Words()]
	clear(cells)
	return cells
}
