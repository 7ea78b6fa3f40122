// Package pmc implements potential memory communication (PMC)
// identification — Algorithm 1 of the paper. It gathers the shared memory
// accesses profiled from every sequential test, aggregates them per
// distinct access key (incremental.go), scans read/write range overlaps
// between keys, and classifies an overlapping pair as a PMC when the
// values projected onto the shared bytes differ.
package pmc

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"snowboard/internal/obs"
	"snowboard/internal/trace"
)

// Key is the feature tuple of one side of a PMC: memory range, instruction
// address, and value — exactly the read_key/write_key of Algorithm 1
// lines 12–13.
type Key struct {
	Ins  trace.Ins
	Addr uint64
	Size uint8
	Val  uint64
}

// String renders the key for reports.
func (k Key) String() string {
	return fmt.Sprintf("%s [%#x+%d]=%#x", k.Ins.Name(), k.Addr, k.Size, k.Val)
}

// PMC is a potential memory communication: a write access that, scheduled
// before the paired read in a concurrent execution, would change what the
// read observes. DFLeader marks PMCs whose read is the first fetch of a
// double-fetch pair (§4.3, S-CH-DOUBLE).
type PMC struct {
	Write    Key
	Read     Key
	DFLeader bool
}

// String renders the PMC for reports.
func (p PMC) String() string {
	df := ""
	if p.DFLeader {
		df = " [df]"
	}
	return fmt.Sprintf("W{%s} -> R{%s}%s", p.Write, p.Read, df)
}

// Pair identifies one (writer test, reader test) combination that exhibits
// the PMC. Writer may equal Reader: a test can communicate with a copy of
// itself (the paper's "duplicate" concurrent tests).
type Pair struct {
	Writer, Reader int
}

// MaxPairsPerPMC caps the explicit pair list retained per PMC key; the
// total combination count is still accounted in Entry.PairCount. The paper
// identified 169 billion PMCs — only aggregates are storable at that scale.
const MaxPairsPerPMC = 16

// pairLess orders pairs canonically: by writer test, then reader test.
func pairLess(a, b Pair) bool {
	if a.Writer != b.Writer {
		return a.Writer < b.Writer
	}
	return a.Reader < b.Reader
}

// Entry aggregates everything known about one PMC key.
//
// Pairs holds the MaxPairsPerPMC canonically smallest (writer, reader)
// observations, with multiplicity. Keeping the k smallest — rather than
// the first k encountered — makes the bound independent of observation
// order, so the list is a function of the multiset of observations — which
// is what lets the keyed engine write it down from per-key test counts
// (firstPairs) without replaying the observations.
type Entry struct {
	PMC       PMC
	Pairs     []Pair // the MaxPairsPerPMC canonically smallest test pairs
	PairCount int64  // total combinations, uncapped
}

// addPair inserts pair into the sorted bounded list, dropping the largest
// element when the list is full.
func (e *Entry) addPair(pair Pair) {
	i := len(e.Pairs)
	for i > 0 && pairLess(pair, e.Pairs[i-1]) {
		i--
	}
	if i >= MaxPairsPerPMC {
		return
	}
	if len(e.Pairs) < MaxPairsPerPMC {
		e.Pairs = append(e.Pairs, Pair{})
	}
	copy(e.Pairs[i+1:], e.Pairs[i:])
	e.Pairs[i] = pair
}

// Set is the PMC database produced by identification.
type Set struct {
	Entries map[PMC]*Entry

	// TotalCombinations is the uncapped number of (PMC, writer, reader)
	// combinations observed, the analogue of the paper's headline PMC
	// count.
	TotalCombinations int64

	// byWrite is the lazily built write-key index behind ByWriteRead.
	byWrite   atomic.Pointer[writeIndex]
	byWriteMu sync.Mutex
}

// writeIndex groups a Set's PMCs by write key: pmcs is in canonical
// (Less) order, so each write key owns one contiguous span, found
// through spans, an open-addressed table over the write keys probed from
// the top bits of keyHash and checked against the full key. A key whose
// filterBit is clear has no span: about half of a trial's distinct write
// keys have no PMC, and nearly all are answered without probing spans.
type writeIndex struct {
	entries int // len(Set.Entries) when built
	pmcs    []PMC
	reads   []int32 // reads[i] numbers pmcs[i].Read among the distinct read keys
	nReads  int
	spans   []span   // a power of two of them, at most half used
	shift   uint     // 64 - log2(len(spans))
	filter  []uint64 // a power of two of words, at least 16 bits per entry
}

// span is the write key of pmcs[lo] and its PMCs, pmcs[lo:hi]; hi is 0 in
// an empty slot.
type span struct{ lo, hi int32 }

// keyHash mixes every field of k; the filter and the span table take its
// top bits.
func keyHash(k Key) uint64 {
	return ((uint64(k.Ins)<<32^k.Addr^uint64(k.Size)<<58)*0x9E3779B97F4A7C15 ^ k.Val) * 0xBF58476D1CE4E5B9
}

// filterBit returns the word and bit in the filter of the key hashing to h.
func (idx *writeIndex) filterBit(h uint64) (word int, bit uint64) {
	h >>= 64 - 6 - bits.Len(uint(len(idx.filter)-1))
	return int(h >> 6), 1 << (h & 63)
}

// ByWriteRead returns the PMCs whose write side is exactly k, in canonical
// order, the dense id (ID) of the first of them, and, parallel to them, the
// id of each one's read key: the set's distinct read keys are numbered
// densely from 0, below ReadKeys, so a caller visiting many PMCs can do
// per-read-key work once. The index behind it is built on first use —
// stage 4 is its only caller, so identification and set-up never pay for
// it — and rebuilt when the set has grown since (entries are never removed,
// so an equal entry count means an equal key set). Safe for concurrent use
// by readers; neither slice may be modified.
func (s *Set) ByWriteRead(k Key) (pmcs []PMC, reads []int32, id int) {
	idx := s.index()
	h := keyHash(k)
	if w, b := idx.filterBit(h); idx.filter[w]&b == 0 {
		return nil, nil, 0
	}
	mask := len(idx.spans) - 1
	for i := int(h >> idx.shift); idx.spans[i].hi != 0; i = (i + 1) & mask {
		if sp := idx.spans[i]; idx.pmcs[sp.lo].Write == k {
			return idx.pmcs[sp.lo:sp.hi], idx.reads[sp.lo:sp.hi], int(sp.lo)
		}
	}
	return nil, nil, 0
}

// ID returns p's dense id, its position in the set's canonical order: ids
// run from 0 below Len and stay valid until the set grows.
func (s *Set) ID(p PMC) (int, bool) {
	pmcs := s.index().pmcs
	i := sort.Search(len(pmcs), func(i int) bool { return !Less(pmcs[i], p) })
	return i, i < len(pmcs) && pmcs[i] == p
}

// Subset is a subset of one Set's PMCs, a bit per dense id (Set.ID). Its
// methods take a nil Subset as the empty one.
type Subset struct {
	bits []uint64
	n    int
}

// NewSubset returns an empty subset of s.
func NewSubset(s *Set) *Subset {
	return &Subset{bits: make([]uint64, (s.Len()+63)/64)}
}

// Add puts the PMC with dense id id into b.
func (b *Subset) Add(id int) {
	if w, m := &b.bits[id>>6], uint64(1)<<(id&63); *w&m == 0 {
		*w |= m
		b.n++
	}
}

// Has reports whether the PMC with dense id id is in b.
func (b *Subset) Has(id int) bool {
	return b != nil && b.bits[id>>6]&(1<<(id&63)) != 0
}

// Len returns how many PMCs b holds.
func (b *Subset) Len() int {
	if b == nil {
		return 0
	}
	return b.n
}

// ReadKeys returns how many distinct read keys the set's PMCs have: the
// bound of ByWriteRead's read key ids.
func (s *Set) ReadKeys() int { return s.index().nReads }

// index returns the write-key index of the set as it is now.
func (s *Set) index() *writeIndex {
	if idx := s.byWrite.Load(); idx != nil && idx.entries == len(s.Entries) {
		return idx
	}
	return s.buildByWrite()
}

func (s *Set) buildByWrite() *writeIndex {
	s.byWriteMu.Lock()
	defer s.byWriteMu.Unlock()
	if idx := s.byWrite.Load(); idx != nil && idx.entries == len(s.Entries) {
		return idx
	}
	pmcs := s.sortedPMCs()
	writes := 0
	for i := range pmcs {
		if i == 0 || pmcs[i].Write != pmcs[i-1].Write {
			writes++
		}
	}
	idx := &writeIndex{entries: len(s.Entries), pmcs: pmcs, reads: make([]int32, len(pmcs)),
		filter: make([]uint64, 1<<bits.Len(uint(len(s.Entries)/4)))}
	slots := bits.Len(uint(2 * writes)) // log2 of a table 2–4 times the keys
	idx.spans, idx.shift = make([]span, 1<<slots), uint(64-slots)
	mask := len(idx.spans) - 1
	for lo := 0; lo < len(pmcs); {
		hi := lo + 1
		for hi < len(pmcs) && pmcs[hi].Write == pmcs[lo].Write {
			hi++
		}
		h := keyHash(pmcs[lo].Write)
		i := int(h >> idx.shift)
		for idx.spans[i].hi != 0 {
			i = (i + 1) & mask
		}
		idx.spans[i] = span{int32(lo), int32(hi)}
		w, b := idx.filterBit(h)
		idx.filter[w] |= b
		lo = hi
	}
	// Number the read keys in canonical order of their first PMC, through
	// a table of 1 + that PMC's index, probed like spans.
	rbits := 1 + bits.Len(uint(len(pmcs))) // log2 of a table over twice the PMCs
	first := make([]int32, 1<<rbits)
	for j := range pmcs {
		i := int(keyHash(pmcs[j].Read) >> (64 - rbits))
		for first[i] != 0 && pmcs[first[i]-1].Read != pmcs[j].Read {
			i = (i + 1) & (len(first) - 1)
		}
		if first[i] == 0 {
			first[i] = int32(j + 1)
			idx.reads[j] = int32(idx.nReads)
			idx.nReads++
		} else {
			idx.reads[j] = idx.reads[first[i]-1]
		}
	}
	s.byWrite.Store(idx)
	return idx
}

// NewSet returns an empty database.
func NewSet() *Set { return &Set{Entries: make(map[PMC]*Entry)} }

// Add records one observed pair for the PMC.
func (s *Set) Add(p PMC, pair Pair) {
	e := s.Entries[p]
	if e == nil {
		e = &Entry{PMC: p}
		s.Entries[p] = e
	}
	e.addPair(pair)
	e.PairCount++
	s.TotalCombinations++
}

// Len returns the number of distinct PMC keys.
func (s *Set) Len() int { return len(s.Entries) }

// Profile is the shared-memory access set of one sequential test (§4.1),
// with the double-fetch leader markings computed during profiling.
type Profile struct {
	TestID   int
	Accesses trace.Block
	DFLeader map[int]bool // indexes into Accesses
}

// Options tunes identification.
type Options struct {
	// AllowSelfPairs keeps PMCs whose writer and reader are the same test.
	AllowSelfPairs bool
	// SkipValueFilter disables Algorithm 1's projected-value inequality
	// check (lines 9–11); used by the value-filter ablation.
	SkipValueFilter bool
}

// DefaultOptions mirror the paper: self pairs allowed, value filter on.
func DefaultOptions() Options { return Options{AllowSelfPairs: true} }

// Identify runs Algorithm 1 over the profiles and returns the PMC set.
func Identify(profiles []Profile, opt Options) *Set {
	return IdentifyParallel(profiles, opt, 1)
}

// IdentifyParallel is Identify: a fresh Incremental fed the profiles as
// one batch. workers is unused — the keyed engine classifies each (read
// key, write key) pair once, which leaves nothing worth sharding — and is
// kept only because bench/ pins this signature.
func IdentifyParallel(profiles []Profile, opt Options, workers int) *Set {
	inc := NewIncremental(opt)
	inc.AddBatch(profiles)
	set := inc.Set()
	obs.G(obs.MPMCIdentified).Set(int64(set.Len()))
	obs.G(obs.MPMCCombinations).Set(set.TotalCombinations)
	obs.Emit(obs.EvPMCIdentified, obs.A("keys", set.Len()),
		obs.A("combinations", set.TotalCombinations))
	return set
}
