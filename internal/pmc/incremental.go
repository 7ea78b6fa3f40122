package pmc

import (
	"sort"

	"snowboard/internal/obs"
	"snowboard/internal/trace"
)

// Keyed identification: the paper computes 169 billion PMCs over 129,876
// profiles and keeps only per-key aggregates (§4.2), and everything a Set
// records about a PMC — its pair count and its canonically smallest pairs —
// is a function of how often each test performed the read key and the
// write key, not of the individual accesses. Incremental therefore keeps,
// per side, the distinct access keys bucketed by start address, each with a
// test-sorted (test, count) list, and classifies every overlapping (read
// key, write key) pair exactly once: work grows with the keys, not with
// profiles². A new batch folds into the aggregate and only the entries of
//
//	(dirty read key × overlapping write keys) ∪ (clean read key × dirty write keys)
//
// are recomputed, so the Set is a function of the multiset of observations
// fed so far — deep-equal to the per-access reference (difftest.Reference)
// however the corpus is partitioned into batches and in whatever order the
// batches arrive. Profile blocks are not retained.

// Incremental metrics (process-wide registry, resolved once).
var (
	mIncrBatches    = obs.C(obs.MIncrBatches)
	mIncrDeltaPairs = obs.C(obs.MIncrDeltaPairs)
	mIncrReuse      = obs.G(obs.MIncrReuse)
)

// maxAccessSize is the largest single access the VM can produce.
const maxAccessSize = 8

// accessKey is one side of a PMC as the aggregate keys it: Algorithm 1's
// read_key/write_key plus, for reads, the double-fetch leader mark that is
// part of the PMC's identity (always false for writes).
type accessKey struct {
	Key
	df bool
}

func (k *accessKey) end() uint64 { return k.Addr + uint64(k.Size) }

// testCount says one test performed an access key n times.
type testCount struct {
	test int
	n    int64
}

// keyObs is every observation of one access key: who performed it, how
// often, and the total.
type keyObs struct {
	accessKey
	tests []testCount // ascending by test
	total int64
	dirty bool // observed since the last recompute
}

// keyIndex is one side's distinct access keys. Every access is at most
// maxAccessSize bytes, so a range [a, a+n) can only overlap keys whose
// start address lies in (a-maxAccessSize, a+n): bucketing by start address
// makes the overlap query a bounded number of bucket probes.
type keyIndex struct {
	byKey  map[accessKey]*keyObs
	byAddr map[uint64][]*keyObs
	dirty  []*keyObs
}

func newKeyIndex() keyIndex {
	return keyIndex{byKey: make(map[accessKey]*keyObs), byAddr: make(map[uint64][]*keyObs)}
}

// insert adds the record of a key the index does not hold yet, dirty.
func (ix *keyIndex) insert(o *keyObs) {
	o.dirty = true
	ix.byKey[o.accessKey] = o
	ix.byAddr[o.Addr] = append(ix.byAddr[o.Addr], o)
	ix.dirty = append(ix.dirty, o)
}

// observe records one more access with key k by test.
func (ix *keyIndex) observe(k accessKey, test int) {
	o := ix.byKey[k]
	if o == nil {
		o = &keyObs{accessKey: k}
		ix.insert(o)
	} else if !o.dirty {
		o.dirty = true
		ix.dirty = append(ix.dirty, o)
	}
	o.total++
	// Profiles arrive mostly in test order, so the test is usually the last
	// one or a new largest; any other position is a sorted insert.
	i := len(o.tests)
	if i > 0 && o.tests[i-1].test >= test {
		if o.tests[i-1].test > test {
			i = sort.Search(i, func(j int) bool { return o.tests[j].test >= test })
		} else {
			i--
		}
		if o.tests[i].test == test {
			o.tests[i].n++
			return
		}
	}
	o.tests = append(o.tests, testCount{})
	copy(o.tests[i+1:], o.tests[i:])
	o.tests[i] = testCount{test: test, n: 1}
}

// overlapping invokes fn for every key whose range overlaps [addr, end).
func (ix *keyIndex) overlapping(addr, end uint64, fn func(*keyObs)) {
	lo := uint64(0)
	if addr > maxAccessSize {
		lo = addr - maxAccessSize + 1
	}
	for a := lo; a < end; a++ { // keys starting at or past end cannot overlap
		for _, o := range ix.byAddr[a] {
			if o.Addr < end && addr < o.end() {
				fn(o)
			}
		}
	}
}

// clean ends a recompute: nothing is dirty any more.
func (ix *keyIndex) clean() {
	for _, o := range ix.dirty {
		o.dirty = false
	}
	ix.dirty = ix.dirty[:0]
}

// Incremental is a PMC database that accretes: feed it profile batches
// with AddBatch and Set() is always deep-equal to Identify over every
// profile fed so far.
type Incremental struct {
	opt           Options
	set           *Set
	reads, writes keyIndex

	batches int
}

// NewIncremental returns an empty incremental identifier.
func NewIncremental(opt Options) *Incremental {
	return &Incremental{opt: opt, set: NewSet(), reads: newKeyIndex(), writes: newKeyIndex()}
}

// Set returns the cumulative PMC database. The caller must not mutate it
// while more batches are being added.
func (inc *Incremental) Set() *Set { return inc.set }

// AddBatch ingests one batch of profiles.
func (inc *Incremental) AddBatch(batch []Profile) {
	if len(batch) == 0 {
		return
	}
	before := inc.set.TotalCombinations
	for pi := range batch {
		p := &batch[pi]
		for ai, n := 0, p.Accesses.Len(); ai < n; ai++ {
			k := accessKey{Key: Key{
				Ins:  p.Accesses.InsAt(ai),
				Addr: p.Accesses.AddrAt(ai),
				Size: p.Accesses.SizeAt(ai),
				Val:  p.Accesses.ValAt(ai),
			}}
			if p.Accesses.IsWriteAt(ai) {
				inc.writes.observe(k, p.TestID)
			} else {
				k.df = p.DFLeader[ai]
				inc.reads.observe(k, p.TestID)
			}
		}
	}
	inc.recompute()
	inc.batches++

	scanned := inc.set.TotalCombinations - before
	mIncrBatches.Inc()
	mIncrDeltaPairs.Add(scanned)
	if total := inc.set.TotalCombinations; total > 0 {
		mIncrReuse.Set((total - scanned) * 100 / total)
	}
	obs.G(obs.MPMCIdentified).Set(int64(inc.set.Len()))
	obs.G(obs.MPMCCombinations).Set(inc.set.TotalCombinations)
	obs.Emit(obs.EvPMCIncremental, obs.A("batch", inc.batches),
		obs.A("profiles", len(batch)), obs.A("delta", scanned),
		obs.A("keys", inc.set.Len()))
}

// recompute brings the Set up to date with the aggregate: every entry with
// a dirty side is classified again, each exactly once.
func (inc *Incremental) recompute() {
	for _, r := range inc.reads.dirty {
		inc.writes.overlapping(r.Addr, r.end(), func(w *keyObs) { inc.classify(r, w) })
	}
	for _, w := range inc.writes.dirty {
		inc.reads.overlapping(w.Addr, w.end(), func(r *keyObs) {
			if !r.dirty {
				inc.classify(r, w)
			}
		})
	}
	inc.reads.clean()
	inc.writes.clean()
}

// classify applies Algorithm 1 lines 9–14 to one overlapping (read key,
// write key) pair and writes the entry all of its observations amount to:
// the projected-value inequality check, then the pair count and the
// canonically smallest pairs from the two test lists.
func (inc *Incremental) classify(r, w *keyObs) {
	if !inc.opt.SkipValueFilter {
		ra, wa := r.access(trace.Read), w.access(trace.Write)
		lo, hi := ra.OverlapRange(&wa)
		if ra.ProjectVal(lo, hi) == wa.ProjectVal(lo, hi) {
			return // the write would not change what the read sees
		}
	}
	count := r.total * w.total
	if !inc.opt.AllowSelfPairs {
		count -= sameTest(r.tests, w.tests)
	}
	if count == 0 {
		return
	}
	p := PMC{Write: w.Key, Read: r.Key, DFLeader: r.df}
	e := inc.set.Entries[p]
	if e == nil {
		e = &Entry{PMC: p, Pairs: make([]Pair, 0, min(count, MaxPairsPerPMC))}
		inc.set.Entries[p] = e
	}
	inc.set.TotalCombinations += count - e.PairCount
	e.PairCount = count
	e.Pairs = firstPairs(e.Pairs[:0], w.tests, r.tests, inc.opt.AllowSelfPairs)
}

// access renders the key as the access it stands for.
func (k Key) access(kind trace.Kind) trace.Access {
	return trace.Access{Ins: k.Ins, Kind: kind, Addr: k.Addr, Size: k.Size, Val: k.Val}
}

// sameTest counts the (read, write) combinations both sides of which one
// test performed — the diagonal AllowSelfPairs=false takes out.
func sameTest(rt, wt []testCount) int64 {
	var n int64
	for i, j := 0, 0; i < len(rt) && j < len(wt); {
		switch {
		case rt[i].test < wt[j].test:
			i++
		case rt[i].test > wt[j].test:
			j++
		default:
			n += rt[i].n * wt[j].n
			i++
			j++
		}
	}
	return n
}

// firstPairs appends the first MaxPairsPerPMC elements, in pairLess order
// and with multiplicity, of the cross product of the two test lists.
func firstPairs(dst []Pair, wt, rt []testCount, selfPairs bool) []Pair {
	for _, w := range wt {
		for _, r := range rt {
			if !selfPairs && w.test == r.test {
				continue
			}
			for m := w.n * r.n; m > 0; m-- {
				if len(dst) == MaxPairsPerPMC {
					return dst
				}
				dst = append(dst, Pair{Writer: w.test, Reader: r.test})
			}
		}
	}
	return dst
}
