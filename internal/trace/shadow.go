package trace

import "iter"

// Shadow is a flat shadow-memory table: an open-addressed hash table from a
// 64-bit key — an address, or an 8-byte word address — to a value of type T.
// It exists for the per-trial analyses (the trial View that interns word
// addresses, the happens-before oracle's lock and publication clocks), which
// build per-address state from scratch for every trial: Reset is O(1) (a
// generation stamp invalidates every slot at once), storage grows by
// doubling and is kept across trials, so a warm table never allocates. With
// T = struct{} it is a flat set of keys (cover.Edges).
//
// The zero value is an empty table. A Shadow is not safe for concurrent
// use, except that Get and Len write nothing: any number of goroutines may
// call them between writes.
type Shadow[T any] struct {
	slots []shadowSlot[T]
	shift uint   // 64 - log2(len(slots))
	gen   uint32 // current generation; slots stamped otherwise are empty
	live  int    // slots of the current generation
}

type shadowSlot[T any] struct {
	key uint64
	gen uint32
	val T
}

// shadowMinSlots is the initial table size: small, so an explorer that
// only ever sees short traces stays small.
const shadowMinSlots = 64

// Reset empties the table in O(1), keeping its storage.
func (s *Shadow[T]) Reset() {
	s.live = 0
	s.gen++
	if s.gen == 0 {
		// Generation wrap: stale stamps could alias the new generation.
		for i := range s.slots {
			s.slots[i].gen = 0
		}
		s.gen = 1
	}
}

// Len returns the number of keys present.
func (s *Shadow[T]) Len() int { return s.live }

// All yields every key present with its value, in table order. The table
// must not be written while the iteration runs.
func (s *Shadow[T]) All() iter.Seq2[uint64, *T] {
	return func(yield func(uint64, *T) bool) {
		if s.live == 0 {
			return
		}
		for i := range s.slots {
			if sl := &s.slots[i]; sl.gen == s.gen && !yield(sl.key, &sl.val) {
				return
			}
		}
	}
}

// index returns the slot holding key, or the empty slot where it belongs.
// The table is never full (load ≤ 1/2), so the probe terminates.
func (s *Shadow[T]) index(key uint64) int {
	mask := len(s.slots) - 1
	i := int(key * 0x9E3779B97F4A7C15 >> s.shift)
	for s.slots[i].gen == s.gen && s.slots[i].key != key {
		i = (i + 1) & mask
	}
	return i
}

// Get returns the value stored for key, or nil when the key is absent. The
// pointer is valid until the next Slot or Reset.
func (s *Shadow[T]) Get(key uint64) *T {
	if s.live == 0 {
		return nil
	}
	if sl := &s.slots[s.index(key)]; sl.gen == s.gen {
		return &sl.val
	}
	return nil
}

// Slot returns the value stored for key, inserting a zero value first when
// the key is absent. The pointer is valid until the next Slot or Reset.
func (s *Shadow[T]) Slot(key uint64) *T {
	if len(s.slots) == 0 {
		s.gen = 1
		s.resize(shadowMinSlots)
	}
	sl := &s.slots[s.index(key)]
	if sl.gen == s.gen {
		return &sl.val
	}
	if 2*(s.live+1) > len(s.slots) {
		s.resize(2 * len(s.slots))
		sl = &s.slots[s.index(key)]
	}
	var zero T
	sl.key, sl.gen, sl.val = key, s.gen, zero
	s.live++
	return &sl.val
}

// resize rehashes the current generation's slots into a table of n slots
// (a power of two).
func (s *Shadow[T]) resize(n int) {
	old := s.slots
	s.slots = make([]shadowSlot[T], n)
	s.shift = 64
	for m := n; m > 1; m >>= 1 {
		s.shift--
	}
	for i := range old {
		if old[i].gen == s.gen {
			s.slots[s.index(old[i].key)] = old[i]
		}
	}
}
