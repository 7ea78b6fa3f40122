package trace

import (
	"encoding/binary"
	"encoding/json"
	"sort"
	"sync"
)

// LockSet names an interned set of held lock addresses. The zero value is
// the empty set. Sets are canonicalized (sorted, deduplicated) and stored
// once in a process-wide table, so the same set of addresses always interns
// to the same LockSet within a process and Access values stay comparable —
// there is no shared slice to alias and no "do not mutate" contract:
// Addrs always returns a fresh copy, and the interned storage is never
// handed out mutably.
//
// LockSet ids are process-local and never serialized.
type LockSet uint32

// lockTable is the process-wide intern table. sets[0] is the empty set.
// Interning takes the write lock; readers (Addrs, Has, SharesWith) take the
// read lock. Interned slices are immutable once published, so returning a
// view under the read lock is safe package-internally.
type lockTable struct {
	mu      sync.RWMutex
	set     [][]uint64
	ids     map[string]LockSet
	key     []byte   // scratch for map lookups, guarded by mu (write side)
	scratch []uint64 // scratch for With/Without candidates, guarded by mu (write side)
}

var lockTab = &lockTable{
	set: [][]uint64{nil},
	ids: map[string]LockSet{"": 0},
}

// lockKey encodes addrs into dst as the canonical map key.
func lockKey(dst []byte, addrs []uint64) []byte {
	dst = dst[:0]
	for _, a := range addrs {
		dst = binary.BigEndian.AppendUint64(dst, a)
	}
	return dst
}

// internLocked interns the canonical (sorted, deduplicated) addrs, copying
// them if the set is new. Callers hold the write lock.
func (t *lockTable) internLocked(addrs []uint64) LockSet {
	if len(addrs) == 0 {
		return 0
	}
	t.key = lockKey(t.key, addrs)
	if id, ok := t.ids[string(t.key)]; ok {
		return id
	}
	id := LockSet(len(t.set))
	t.set = append(t.set, append([]uint64(nil), addrs...))
	t.ids[string(t.key)] = id
	return id
}

// InternLocks interns an arbitrary list of lock addresses (copied, sorted,
// deduplicated) and returns its set id.
func InternLocks(addrs []uint64) LockSet {
	if len(addrs) == 0 {
		return 0
	}
	c := append([]uint64(nil), addrs...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	n := 1
	for i := 1; i < len(c); i++ {
		if c[i] != c[n-1] {
			c[n] = c[i]
			n++
		}
	}
	c = c[:n]
	lockTab.mu.Lock()
	id := lockTab.internLocked(c)
	lockTab.mu.Unlock()
	return id
}

// view returns the interned slice without copying. Callers must not mutate
// or retain it beyond the current operation; package code only.
func (s LockSet) view() []uint64 {
	if s == 0 {
		return nil
	}
	lockTab.mu.RLock()
	v := lockTab.set[s]
	lockTab.mu.RUnlock()
	return v
}

// Len returns the number of locks in the set.
func (s LockSet) Len() int { return len(s.view()) }

// Addrs returns the lock addresses, sorted ascending, as a fresh slice the
// caller owns.
func (s LockSet) Addrs() []uint64 {
	v := s.view()
	if len(v) == 0 {
		return nil
	}
	return append([]uint64(nil), v...)
}

// With returns the set extended by addr (interning the result).
func (s LockSet) With(addr uint64) LockSet {
	lockTab.mu.Lock()
	defer lockTab.mu.Unlock()
	base := lockTab.set[s]
	i := sort.Search(len(base), func(i int) bool { return base[i] >= addr })
	if i < len(base) && base[i] == addr {
		return s
	}
	merged := append(lockTab.scratch[:0], base[:i]...)
	merged = append(merged, addr)
	merged = append(merged, base[i:]...)
	lockTab.scratch = merged // internLocked copies on a miss
	return lockTab.internLocked(merged)
}

// Without returns the set with addr removed (interning the result).
func (s LockSet) Without(addr uint64) LockSet {
	lockTab.mu.Lock()
	defer lockTab.mu.Unlock()
	base := lockTab.set[s]
	i := sort.Search(len(base), func(i int) bool { return base[i] >= addr })
	if i >= len(base) || base[i] != addr {
		return s
	}
	if len(base) == 1 {
		return 0
	}
	rest := append(lockTab.scratch[:0], base[:i]...)
	rest = append(rest, base[i+1:]...)
	lockTab.scratch = rest // internLocked copies on a miss
	return lockTab.internLocked(rest)
}

// SharesWith reports whether the two sets have at least one lock in common.
func (s LockSet) SharesWith(o LockSet) bool {
	if s == 0 || o == 0 {
		return false
	}
	if s == o {
		return true
	}
	lockTab.mu.RLock()
	a, b := lockTab.set[s], lockTab.set[o]
	lockTab.mu.RUnlock()
	i, j := 0, 0
	for i < len(a) && j < len(b) {
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

// MarshalJSON renders the set as its address list, keeping process-local
// ids out of any serialized form.
func (s LockSet) MarshalJSON() ([]byte, error) {
	addrs := s.Addrs()
	if addrs == nil {
		addrs = []uint64{}
	}
	return json.Marshal(addrs)
}

// UnmarshalJSON interns an address list.
func (s *LockSet) UnmarshalJSON(data []byte) error {
	var addrs []uint64
	if err := json.Unmarshal(data, &addrs); err != nil {
		return err
	}
	*s = InternLocks(addrs)
	return nil
}
