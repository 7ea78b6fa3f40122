package pmc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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

// accessLess is the canonical order of one side's keys: keyLess, then df.
func accessLess(a, b accessKey) bool {
	if a.Key != b.Key {
		return keyLess(a.Key, b.Key)
	}
	return !a.df && b.df
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

	batches  int
	profiles int
}

// NewIncremental returns an empty incremental identifier.
func NewIncremental(opt Options) *Incremental {
	return &Incremental{opt: opt, set: NewSet(), reads: newKeyIndex(), writes: newKeyIndex()}
}

// Set returns the cumulative PMC database. The caller must not mutate it
// while more batches are being added.
func (inc *Incremental) Set() *Set { return inc.set }

// Batches reports how many batches have been ingested (including those
// restored from a snapshot).
func (inc *Incremental) Batches() int { return inc.batches }

// Profiles reports how many profiles have been ingested.
func (inc *Incremental) Profiles() int { return inc.profiles }

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
	inc.profiles += len(batch)

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

// SBPI snapshot codec. An Incremental serializes as its aggregate: the
// batch and profile counts, then the read keys and the write keys in
// canonical order (accessLess), each with its (test, count) list —
// everything needed to resume identification in another process. The Set
// is not stored: DecodeIncremental derives it from the aggregate, so a
// snapshot cannot carry a set that disagrees with its own observations.
// Two Incrementals in the same logical state encode to identical bytes
// regardless of the batch order that built them, so content addresses are
// stable.

const (
	incrementalMagic   = "SBPI"
	incrementalVersion = 2

	// Caps on one side's summed counts; together they keep a pair count
	// (read total × write total) inside int64.
	maxIncrementalReads  = 1 << 28
	maxIncrementalWrites = 1 << 30
)

// IncrementalCodecVersion identifies the SBPI encoding; stage digests mix
// it in so a format change invalidates stored snapshots.
const IncrementalCodecVersion = incrementalVersion

// ErrBadIncremental reports a malformed serialized incremental index.
var ErrBadIncremental = errors.New("pmc: malformed incremental index encoding")

// EncodeIncremental writes the SBPI snapshot of inc to w.
func EncodeIncremental(w io.Writer, inc *Incremental) error {
	// A bufio.Writer's first error sticks and is what Flush returns, so the
	// writes in between go unchecked.
	bw := bufio.NewWriter(w)
	bw.WriteString(incrementalMagic)
	bw.WriteByte(incrementalVersion)
	putUvarint(bw, uint64(inc.batches))
	putUvarint(bw, uint64(inc.profiles))
	encodeKeys(bw, &inc.reads, true)
	encodeKeys(bw, &inc.writes, false)
	return bw.Flush()
}

func putUvarint(bw *bufio.Writer, v uint64) {
	bw.Write(binary.AppendUvarint(bw.AvailableBuffer(), v))
}

// encodeKeys writes one side of an SBPI snapshot: the keys in canonical
// order, each with its (test, count) list; read keys carry their df mark.
func encodeKeys(bw *bufio.Writer, ix *keyIndex, withDF bool) {
	keys := make([]*keyObs, 0, len(ix.byKey))
	for _, o := range ix.byKey {
		keys = append(keys, o)
	}
	sort.Slice(keys, func(i, j int) bool { return accessLess(keys[i].accessKey, keys[j].accessKey) })
	putUvarint(bw, uint64(len(keys)))
	for _, o := range keys {
		putUvarint(bw, uint64(o.Ins))
		putUvarint(bw, o.Addr)
		bw.WriteByte(o.Size)
		putUvarint(bw, o.Val)
		if withDF {
			var df byte
			if o.df {
				df = 1
			}
			bw.WriteByte(df)
		}
		putUvarint(bw, uint64(len(o.tests)))
		for _, tc := range o.tests {
			putUvarint(bw, uint64(tc.test))
			putUvarint(bw, uint64(tc.n))
		}
	}
}

// DecodeIncremental parses an SBPI snapshot and returns a resumable
// Incremental configured with opt (options are not serialized: the memo
// key that addresses a snapshot already pins them), its Set derived from
// the decoded aggregate. The decoder is hardened like the other artifact
// codecs: structural violations — keys or tests out of canonical order, a
// zero count, a size outside 1..8, counts past the caps, trailing bytes —
// yield errors wrapping ErrBadIncremental, never panics, and nothing is
// allocated from an unchecked count.
func DecodeIncremental(r io.Reader, opt Options) (*Incremental, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadIncremental, err)
	}
	if string(magic[:]) != incrementalMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadIncremental, magic)
	}
	ver, err := br.ReadByte()
	if err != nil || ver != incrementalVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadIncremental, ver)
	}
	batches, err := binary.ReadUvarint(br)
	if err != nil || batches > maxProfiles {
		return nil, fmt.Errorf("%w: batch count", ErrBadIncremental)
	}
	profiles, err := binary.ReadUvarint(br)
	if err != nil || profiles > maxProfiles {
		return nil, fmt.Errorf("%w: profile count", ErrBadIncremental)
	}
	inc := NewIncremental(opt)
	inc.batches, inc.profiles = int(batches), int(profiles)
	if err := decodeKeys(br, &inc.reads, true, maxIncrementalReads); err != nil {
		return nil, fmt.Errorf("%w: read keys: %v", ErrBadIncremental, err)
	}
	if err := decodeKeys(br, &inc.writes, false, maxIncrementalWrites); err != nil {
		return nil, fmt.Errorf("%w: write keys: %v", ErrBadIncremental, err)
	}
	if extra, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: %d trailing bytes (first %#x)", ErrBadIncremental, br.Buffered()+1, extra)
	}
	inc.recompute()
	return inc, nil
}

// decodeKeys reads what encodeKeys wrote into ix, every key dirty, and
// rejects anything encodeKeys could not have written.
func decodeKeys(br *bufio.Reader, ix *keyIndex, withDF bool, maxTotal int64) error {
	var fail error
	getU := func() uint64 {
		v, err := binary.ReadUvarint(br)
		if err != nil && fail == nil {
			fail = err
		}
		return v
	}
	getB := func() byte {
		b, err := br.ReadByte()
		if err != nil && fail == nil {
			fail = err
		}
		return b
	}
	nkeys := getU()
	var prev accessKey
	var total int64
	for i := uint64(0); i < nkeys; i++ {
		o := &keyObs{}
		o.Ins, o.Addr, o.Size, o.Val = trace.Ins(getU()), getU(), getB(), getU()
		if withDF {
			df := getB()
			if df > 1 {
				return fmt.Errorf("key %d: df flag %d", i, df)
			}
			o.df = df == 1
		}
		ntests := getU()
		if fail != nil {
			return fail
		}
		if o.Size == 0 || o.Size > maxAccessSize {
			return fmt.Errorf("key %d: size %d", i, o.Size)
		}
		if i > 0 && !accessLess(prev, o.accessKey) {
			return fmt.Errorf("key %d: keys not strictly ascending", i)
		}
		prev = o.accessKey
		if ntests == 0 {
			return fmt.Errorf("key %d: no observations", i)
		}
		for j := uint64(0); j < ntests; j++ {
			test, n := getU(), getU()
			if fail != nil {
				return fail
			}
			if test > maxDecodedTestID || (j > 0 && int(test) <= o.tests[j-1].test) {
				return fmt.Errorf("key %d: test %d: ids not strictly ascending", i, j)
			}
			if n == 0 || n > uint64(maxTotal) || total+int64(n) > maxTotal {
				return fmt.Errorf("key %d: test %d: count %d", i, j, n)
			}
			total += int64(n)
			o.total += int64(n)
			o.tests = append(o.tests, testCount{test: int(test), n: int64(n)})
		}
		ix.insert(o)
	}
	return fail
}
