package sched

import (
	"math/bits"
	"slices"
)

// flagSet is the flags of one concurrent test: the access signatures seen
// right before a PMC access, each with whether it has fired in the running
// trial. Flags are only ever added within a test, so the set is a list in
// the order they were learned — what a trial started with is a prefix of it
// — under an open-addressed index that stores positions and compares whole
// signatures: whether an access is a flag, and whether that flag has fired,
// is one probe, and two signatures never stand in for each other.
type flagSet struct {
	list  []sig      // in the order learned
	index []flagSlot // a power of two long, at most half full: a probe is short and always ends
	trial int        // the running trial, counted from 1
}

type flagSlot struct {
	at    int // 1 + position in list, 0 for a free slot
	fired int // the trial in which the flag last fired
}

// reset empties the set, keeping its storage, and makes room for n flags: a
// set loaded from a recorded state allocates its list and its index once.
func (f *flagSet) reset(n int) {
	f.list, f.trial = slices.Grow(f.list[:0], n), 0
	clear(f.index)
	f.fit(n)
}

// fit makes the index long enough for n flags.
func (f *flagSet) fit(n int) {
	if 2*n <= len(f.index) {
		return
	}
	old := f.index
	f.index = make([]flagSlot, max(16, 1<<bits.Len(uint(2*n-1))))
	for _, e := range old {
		if e.at != 0 {
			*f.probe(f.list[e.at-1]) = e
		}
	}
}

// probe returns the slot of s, or the free slot where s belongs; nil while
// the set has never held a flag.
func (f *flagSet) probe(s sig) *flagSlot {
	if len(f.index) == 0 {
		return nil
	}
	h := (s.addr ^ uint64(s.ins)<<32 ^ uint64(s.kind)<<8 ^ uint64(s.size)) * 0x9e3779b97f4a7c15
	for i := int(h >> (64 - bits.TrailingZeros(uint(len(f.index))))); ; i = (i + 1) & (len(f.index) - 1) {
		if e := &f.index[i]; e.at == 0 || f.list[e.at-1] == s {
			return e
		}
	}
}

// add makes s a flag and reports whether it was not one already.
func (f *flagSet) add(s sig) bool {
	if e := f.probe(s); e != nil && e.at != 0 {
		return false
	}
	f.fit(len(f.list) + 1)
	f.probe(s).at = len(f.list) + 1
	f.list = append(f.list, s)
	return true
}

// fire reports whether s is a flag that has not fired in the running trial,
// and marks it fired.
func (f *flagSet) fire(s sig) bool {
	e := f.probe(s)
	if e == nil || e.at == 0 || e.fired == f.trial {
		return false
	}
	e.fired = f.trial
	return true
}
