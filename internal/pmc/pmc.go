// Package pmc implements potential memory communication (PMC)
// identification — Algorithm 1 of the paper. It gathers the shared memory
// accesses profiled from every sequential test, indexes them with an
// ordered nested index, scans read/write range overlaps, and classifies an
// overlapping pair as a PMC when the values projected onto the shared bytes
// differ.
package pmc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"snowboard/internal/obs"
	"snowboard/internal/par"
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
// order: the k smallest of a union equal the k smallest of the per-shard
// k-smallest lists, which is what lets Set.Merge combine shard results in
// any order and still match a whole-set identification.
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

	// byWrite is the lazily built write-key index behind ByWrite.
	byWrite   atomic.Pointer[writeIndex]
	byWriteMu sync.Mutex
}

// writeIndex groups a Set's PMCs by write key: pmcs is in canonical
// (pmcLess) order, so each write key owns one contiguous span.
type writeIndex struct {
	entries int // len(Set.Entries) when built
	pmcs    []PMC
	spans   map[Key][2]int
}

// ByWrite returns the PMCs whose write side is exactly k, in canonical
// order. The index behind it is built on first use — stage 4 is its only
// caller, so identification and set-up never pay for it — and rebuilt when
// the set has grown since (entries are never removed, so an equal entry
// count means an equal key set). Safe for concurrent use by readers; the
// returned slice must not be modified.
func (s *Set) ByWrite(k Key) []PMC {
	idx := s.byWrite.Load()
	if idx == nil || idx.entries != len(s.Entries) {
		idx = s.buildByWrite()
	}
	span := idx.spans[k]
	return idx.pmcs[span[0]:span[1]]
}

func (s *Set) buildByWrite() *writeIndex {
	s.byWriteMu.Lock()
	defer s.byWriteMu.Unlock()
	if idx := s.byWrite.Load(); idx != nil && idx.entries == len(s.Entries) {
		return idx
	}
	idx := &writeIndex{entries: len(s.Entries), pmcs: s.sortedPMCs(), spans: make(map[Key][2]int)}
	for lo := 0; lo < len(idx.pmcs); {
		hi := lo + 1
		for hi < len(idx.pmcs) && idx.pmcs[hi].Write == idx.pmcs[lo].Write {
			hi++
		}
		idx.spans[idx.pmcs[lo].Write] = [2]int{lo, hi}
		lo = hi
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
	if p.DFLeader && !e.PMC.DFLeader {
		e.PMC.DFLeader = true
	}
	e.addPair(pair)
	e.PairCount++
	s.TotalCombinations++
}

// Merge folds other into s. Entries merge key-wise: pair counts add and
// the bounded pair lists keep the canonically smallest MaxPairsPerPMC
// observations, so Merge is commutative and associative and merging
// per-shard identifications equals identifying over the whole profile set.
// other is not modified.
func (s *Set) Merge(other *Set) {
	for key, oe := range other.Entries {
		e := s.Entries[key]
		if e == nil {
			e = &Entry{PMC: oe.PMC}
			s.Entries[key] = e
		}
		for _, pair := range oe.Pairs {
			e.addPair(pair)
		}
		e.PairCount += oe.PairCount
	}
	s.TotalCombinations += other.TotalCombinations
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

// IdentifyParallel runs Algorithm 1 sharded by reader profile across
// workers goroutines (0 means GOMAXPROCS). All workers scan a shared
// read-only write index; each produces a per-shard Set which is merged in
// profile order. Because Set.Merge keeps canonical bounded pair lists, the
// result is identical to a serial Identify regardless of worker count.
func IdentifyParallel(profiles []Profile, opt Options, workers int) *Set {
	idx := buildIndex(profiles)
	shards := par.Map(workers, len(profiles), func(_, pi int) *Set {
		shard := NewSet()
		identifyReader(idx, &profiles[pi], opt, shard)
		return shard
	})
	set := NewSet()
	for _, shard := range shards {
		set.Merge(shard)
	}
	obs.G(obs.MPMCIdentified).Set(int64(set.Len()))
	obs.G(obs.MPMCCombinations).Set(set.TotalCombinations)
	obs.Emit(obs.EvPMCIdentified, obs.A("keys", set.Len()),
		obs.A("combinations", set.TotalCombinations))
	return set
}

// buildIndex gathers every write access of the profiles into a sealed
// ordered index, safe for concurrent overlap queries. It iterates the
// columnar profiles directly and stores self-contained value records, so
// the index never holds pointers into (or forces materialization of) the
// profile blocks.
func buildIndex(profiles []Profile) *index {
	idx := newIndex()
	for pi := range profiles {
		p := &profiles[pi]
		n := p.Accesses.Len()
		for ai := 0; ai < n; ai++ {
			if p.Accesses.IsWriteAt(ai) {
				idx.addWrite(writeRec{
					addr: p.Accesses.AddrAt(ai),
					val:  p.Accesses.ValAt(ai),
					ins:  p.Accesses.InsAt(ai),
					size: p.Accesses.SizeAt(ai),
					test: int32(p.TestID),
				})
			}
		}
	}
	idx.seal()
	return idx
}

// identifyReader scans one reader profile against the sealed write index,
// adding every identified PMC to set (Algorithm 1 lines 6–14).
func identifyReader(idx *index, p *Profile, opt Options, set *Set) {
	n := p.Accesses.Len()
	for ai := 0; ai < n; ai++ {
		if p.Accesses.KindAt(ai) != trace.Read {
			continue
		}
		r := p.Accesses.At(ai)
		idx.overlapping(r.Addr, r.End(), func(w writeRec) {
			classify(&r, w, p.DFLeader[ai], p.TestID, opt, set)
		})
	}
}

// classify applies Algorithm 1 lines 9–14 to one overlapping (read, write)
// candidate: the self-pair filter, the projected-value inequality check,
// and the Set insertion. It is shared between the batch path
// (identifyReader) and the incremental path (readerView.scan), so the two
// classify identically by construction.
func classify(r *trace.Access, w writeRec, dfLeader bool, readerTest int, opt Options, set *Set) {
	if !opt.AllowSelfPairs && int(w.test) == readerTest {
		return
	}
	wAcc := trace.Access{Ins: w.ins, Kind: trace.Write, Addr: w.addr, Size: w.size, Val: w.val}
	lo, hi := r.OverlapRange(&wAcc)
	if !opt.SkipValueFilter {
		if r.ProjectVal(lo, hi) == wAcc.ProjectVal(lo, hi) {
			return // the write would not change what the read sees
		}
	}
	pmc := PMC{
		Write:    Key{Ins: w.ins, Addr: w.addr, Size: w.size, Val: w.val},
		Read:     Key{Ins: r.Ins, Addr: r.Addr, Size: r.Size, Val: r.Val},
		DFLeader: dfLeader,
	}
	set.Add(pmc, Pair{Writer: int(w.test), Reader: readerTest})
}
