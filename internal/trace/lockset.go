package trace

import "slices"

// HeldLocks derives, for every access of tr, the lock words its thread held
// when it made the access, from that thread's lock-word rows before it: an
// atomic write of a non-zero value acquires the word, an atomic write of 0
// releases it. The VM records an acquisition's row once the lock is held
// and a release's once it is dropped, so the set derived for every row is
// the set on the VM's held-lock stack at that row, releases out of order
// included. A thread that ends holding locks has them released without a
// row, and records nothing after; thread ids are not reused within a trace.
//
// sets[i] lists the words of access i ascending. Accesses under one set
// share its list, which the caller must not modify.
func HeldLocks(tr *Trace) (sets [][]uint64) {
	sets = make([][]uint64, len(tr.rows))
	var cur [][]uint64 // per thread, the set it holds
	for i := range tr.rows {
		r := &tr.rows[i]
		t := int(r.meta >> metaThreadShift)
		if t >= len(cur) {
			cur = slices.Grow(cur, t+1-len(cur))[:t+1]
		}
		if r.meta&(MetaAtomic|MetaWrite) == MetaAtomic|MetaWrite {
			cur[t] = withLock(cur[t], r.addr, r.val != 0)
		}
		sets[i] = cur[t]
	}
	return sets
}

// withLock returns set with addr in it when held, without it otherwise: set
// itself if that changes nothing, else a fresh list.
func withLock(set []uint64, addr uint64, held bool) []uint64 {
	i, in := slices.BinarySearch(set, addr)
	switch {
	case in == held:
		return set
	case held:
		return slices.Insert(slices.Clone(set), i, addr)
	case len(set) == 1:
		return nil
	}
	return slices.Delete(slices.Clone(set), i, i+1)
}

// SharesLock reports whether two ascending lock sets have a word in common.
func SharesLock(a, b []uint64) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}
