package pmc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"snowboard/internal/obs"
	"snowboard/internal/par"
	"snowboard/internal/trace"
)

// Incremental identification: the paper computes 169 billion PMCs over
// 129,876 profiles, and re-pairing the whole corpus per campaign is
// O(corpus²). Incremental instead maintains a cumulative PMC Set plus one
// appendable write index, and on each new batch of profiles runs exactly
// two delta scans:
//
//	new readers × all writes (including the batch's own), and
//	old readers × new writes.
//
// Every (reader access, indexed write) candidate of the union is therefore
// scanned exactly once across the lifetime of the Incremental, no matter
// how the corpus is partitioned into batches or in which order the batches
// arrive — so the resulting Set is deep-equal to a one-shot batch Identify
// over the union (the difftest package proves this property under -race at
// several worker counts).
//
// Memory stays bounded by the analysis state, not the traces: ingested
// profiles are compacted to readerViews (read accesses only) and
// self-contained index write records; the profile blocks themselves are
// not retained.

// Incremental metrics (process-wide registry, resolved once).
var (
	mIncrBatches    = obs.C(obs.MIncrBatches)
	mIncrDeltaPairs = obs.C(obs.MIncrDeltaPairs)
	mIncrReuse      = obs.G(obs.MIncrReuse)
)

// readerView is the compact retained form of one ingested profile: just
// the read accesses (the four features Algorithm 1 needs) plus the
// double-fetch leader marks, in columnar layout. Writes live in the
// cumulative index; the full profile block is dropped after ingestion.
type readerView struct {
	test  int32
	ins   []trace.Ins
	addrs []uint64
	vals  []uint64
	sizes []uint8
	df    []bool
}

// newReaderView compacts a profile into its reader view.
func newReaderView(p *Profile) readerView {
	n := 0
	for ai := 0; ai < p.Accesses.Len(); ai++ {
		if p.Accesses.KindAt(ai) == trace.Read {
			n++
		}
	}
	rv := readerView{
		test:  int32(p.TestID),
		ins:   make([]trace.Ins, 0, n),
		addrs: make([]uint64, 0, n),
		vals:  make([]uint64, 0, n),
		sizes: make([]uint8, 0, n),
		df:    make([]bool, 0, n),
	}
	for ai := 0; ai < p.Accesses.Len(); ai++ {
		if p.Accesses.KindAt(ai) != trace.Read {
			continue
		}
		rv.ins = append(rv.ins, p.Accesses.InsAt(ai))
		rv.addrs = append(rv.addrs, p.Accesses.AddrAt(ai))
		rv.vals = append(rv.vals, p.Accesses.ValAt(ai))
		rv.sizes = append(rv.sizes, p.Accesses.SizeAt(ai))
		rv.df = append(rv.df, p.DFLeader[ai])
	}
	return rv
}

// scan runs this reader's accesses against a sealed write index, adding
// every identified PMC to set — the incremental analogue of
// identifyReader, classifying through the same shared helper.
func (rv *readerView) scan(ix *index, opt Options, set *Set) {
	for i := range rv.addrs {
		r := trace.Access{Ins: rv.ins[i], Kind: trace.Read, Addr: rv.addrs[i], Size: rv.sizes[i], Val: rv.vals[i]}
		ix.overlapping(r.Addr, r.End(), func(w writeRec) {
			classify(&r, w, rv.df[i], int(rv.test), opt, set)
		})
	}
}

// Incremental is a PMC database that accretes: feed it profile batches
// with AddBatch and Set() is always deep-equal to Identify over every
// profile fed so far.
type Incremental struct {
	opt     Options
	set     *Set
	idx     *index
	readers []readerView

	batches  int
	profiles int

	// loaded is the TotalCombinations carried in from a decoded snapshot
	// (zero for a fresh Incremental); the reuse-ratio gauge reports how
	// much of the cumulative result the latest batch did not re-scan.
	loaded int64
}

// NewIncremental returns an empty incremental identifier.
func NewIncremental(opt Options) *Incremental {
	return &Incremental{opt: opt, set: NewSet(), idx: newIndex()}
}

// Set returns the cumulative PMC database. The caller must not mutate it
// while more batches are being added.
func (inc *Incremental) Set() *Set { return inc.set }

// Batches reports how many batches have been ingested (including those
// restored from a snapshot).
func (inc *Incremental) Batches() int { return inc.batches }

// Profiles reports how many profiles have been ingested.
func (inc *Incremental) Profiles() int { return inc.profiles }

// Generation reports the write-index generation (one per seal, i.e. one
// per non-empty ingested batch plus snapshot restores).
func (inc *Incremental) Generation() uint64 { return inc.idx.gen }

// AddBatch ingests one batch of profiles serially.
func (inc *Incremental) AddBatch(batch []Profile) { inc.AddBatchParallel(batch, 1) }

// AddBatchParallel ingests one batch of profiles, fanning the two delta
// scans across workers goroutines (0 = GOMAXPROCS). Shard merges fold in
// deterministic order, so the cumulative Set is identical for any worker
// count — the same contract IdentifyParallel has.
func (inc *Incremental) AddBatchParallel(batch []Profile, workers int) {
	if len(batch) == 0 {
		return
	}
	before := inc.set.TotalCombinations

	// Index the batch's writes on their own: old readers diff against
	// exactly these, never against writes they have already seen.
	delta := newIndex()
	for pi := range batch {
		p := &batch[pi]
		for ai := 0; ai < p.Accesses.Len(); ai++ {
			if p.Accesses.IsWriteAt(ai) {
				delta.addWrite(writeRec{
					addr: p.Accesses.AddrAt(ai),
					val:  p.Accesses.ValAt(ai),
					ins:  p.Accesses.InsAt(ai),
					size: p.Accesses.SizeAt(ai),
					test: int32(p.TestID),
				})
			}
		}
	}
	delta.seal()

	// Old readers × new writes.
	if delta.writeCount() > 0 && len(inc.readers) > 0 {
		shards := par.Map(workers, len(inc.readers), func(_, i int) *Set {
			s := NewSet()
			inc.readers[i].scan(delta, inc.opt, s)
			return s
		})
		for _, s := range shards {
			inc.set.Merge(s)
		}
	}

	// Fold the new writes into the cumulative index (amortized re-seal:
	// merged starts, dirty-bucket resorts only).
	for _, b := range delta.buckets {
		for _, w := range b.writes {
			inc.idx.addWrite(w)
		}
	}
	inc.idx.seal()

	// New readers × all writes (old and new alike).
	views := make([]readerView, len(batch))
	for i := range batch {
		views[i] = newReaderView(&batch[i])
	}
	shards := par.Map(workers, len(views), func(_, i int) *Set {
		s := NewSet()
		views[i].scan(inc.idx, inc.opt, s)
		return s
	})
	for _, s := range shards {
		inc.set.Merge(s)
	}
	inc.readers = append(inc.readers, views...)
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

// SBPI snapshot codec. An Incremental serializes as the cumulative Set
// (embedded SBPM blob), the compacted reader views, and the flat write
// records of the index — everything needed to resume delta identification
// in another process. Readers sort by test id and writes by (addr, size,
// ins, val, test) before encoding, so two Incrementals in the same logical
// state encode to identical bytes regardless of the batch order that built
// them, and content addresses are stable.

const (
	incrementalMagic   = "SBPI"
	incrementalVersion = 1

	maxIncrementalSet    = 1 << 31
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
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(incrementalMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(incrementalVersion); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	putU := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	if err := putU(uint64(inc.batches)); err != nil {
		return err
	}
	if err := putU(uint64(inc.profiles)); err != nil {
		return err
	}

	// Cumulative set as a length-prefixed SBPM blob (the nested codec
	// buffers independently, so it cannot share the stream position).
	var setBuf bytes.Buffer
	if err := EncodeSet(&setBuf, inc.set); err != nil {
		return err
	}
	if err := putU(uint64(setBuf.Len())); err != nil {
		return err
	}
	if _, err := bw.Write(setBuf.Bytes()); err != nil {
		return err
	}

	// Reader views, canonically ordered by test id (stable, so equal test
	// ids keep their relative order).
	order := make([]int, len(inc.readers))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return inc.readers[order[a]].test < inc.readers[order[b]].test })
	if err := putU(uint64(len(inc.readers))); err != nil {
		return err
	}
	for _, i := range order {
		rv := &inc.readers[i]
		if err := putU(uint64(rv.test)); err != nil {
			return err
		}
		if err := putU(uint64(len(rv.addrs))); err != nil {
			return err
		}
		for j := range rv.addrs {
			if err := putU(uint64(rv.ins[j])); err != nil {
				return err
			}
			if err := putU(rv.addrs[j]); err != nil {
				return err
			}
			if err := bw.WriteByte(rv.sizes[j]); err != nil {
				return err
			}
			if err := putU(rv.vals[j]); err != nil {
				return err
			}
			var df byte
			if rv.df[j] {
				df = 1
			}
			if err := bw.WriteByte(df); err != nil {
				return err
			}
		}
	}

	// Index writes, flat and canonically ordered; addresses delta-code
	// since the order is address-major.
	writes := make([]writeRec, 0, inc.idx.writeCount())
	for _, b := range inc.idx.buckets {
		writes = append(writes, b.writes...)
	}
	sort.Slice(writes, func(i, j int) bool {
		a, b := writes[i], writes[j]
		if a.addr != b.addr {
			return a.addr < b.addr
		}
		if a.size != b.size {
			return a.size < b.size
		}
		if a.ins != b.ins {
			return a.ins < b.ins
		}
		if a.val != b.val {
			return a.val < b.val
		}
		return a.test < b.test
	})
	if err := putU(uint64(len(writes))); err != nil {
		return err
	}
	prev := uint64(0)
	for _, wr := range writes {
		if err := putU(wr.addr - prev); err != nil {
			return err
		}
		prev = wr.addr
		if err := bw.WriteByte(wr.size); err != nil {
			return err
		}
		if err := putU(uint64(wr.ins)); err != nil {
			return err
		}
		if err := putU(wr.val); err != nil {
			return err
		}
		if err := putU(uint64(wr.test)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeIncremental parses an SBPI snapshot and returns a resumable
// Incremental configured with opt (options are not serialized: the memo
// key that addresses a snapshot already pins them). The decoder is
// hardened like the other artifact codecs: structural violations yield
// errors wrapping ErrBadIncremental, never panics, and counts are
// sanity-capped before allocation.
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
	getU := func(what string) (uint64, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("%w: %s: %v", ErrBadIncremental, what, err)
		}
		return v, nil
	}
	batches, err := getU("batch count")
	if err != nil || batches > maxProfiles {
		return nil, fmt.Errorf("%w: batch count", ErrBadIncremental)
	}
	profiles, err := getU("profile count")
	if err != nil || profiles > maxProfiles {
		return nil, fmt.Errorf("%w: profile count", ErrBadIncremental)
	}

	setLen, err := getU("set length")
	if err != nil || setLen > maxIncrementalSet {
		return nil, fmt.Errorf("%w: set length", ErrBadIncremental)
	}
	setBlob := make([]byte, setLen)
	if _, err := io.ReadFull(br, setBlob); err != nil {
		return nil, fmt.Errorf("%w: set blob: %v", ErrBadIncremental, err)
	}
	set, err := DecodeSet(bytes.NewReader(setBlob))
	if err != nil {
		return nil, fmt.Errorf("%w: embedded set: %v", ErrBadIncremental, err)
	}

	inc := &Incremental{opt: opt, set: set, idx: newIndex(),
		batches: int(batches), profiles: int(profiles), loaded: set.TotalCombinations}

	readerCount, err := getU("reader count")
	if err != nil || readerCount != profiles {
		return nil, fmt.Errorf("%w: reader count", ErrBadIncremental)
	}
	capHint := readerCount
	if capHint > 1024 {
		capHint = 1024
	}
	inc.readers = make([]readerView, 0, capHint)
	totalReads := uint64(0)
	for i := uint64(0); i < readerCount; i++ {
		test, err := getU("reader test id")
		if err != nil || test > maxDecodedTestID {
			return nil, fmt.Errorf("%w: reader %d: test id", ErrBadIncremental, i)
		}
		nreads, err := getU("read count")
		if err != nil {
			return nil, err
		}
		if totalReads += nreads; totalReads > maxIncrementalReads {
			return nil, fmt.Errorf("%w: reader %d: read count", ErrBadIncremental, i)
		}
		readCap := nreads
		if readCap > 4096 {
			readCap = 4096
		}
		rv := readerView{
			test:  int32(test),
			ins:   make([]trace.Ins, 0, readCap),
			addrs: make([]uint64, 0, readCap),
			vals:  make([]uint64, 0, readCap),
			sizes: make([]uint8, 0, readCap),
			df:    make([]bool, 0, readCap),
		}
		for j := uint64(0); j < nreads; j++ {
			ins, err := getU("read ins")
			if err != nil {
				return nil, err
			}
			addr, err := getU("read addr")
			if err != nil {
				return nil, err
			}
			size, err := br.ReadByte()
			if err != nil || size == 0 || size > maxAccessSize {
				return nil, fmt.Errorf("%w: reader %d read %d: size", ErrBadIncremental, i, j)
			}
			val, err := getU("read val")
			if err != nil {
				return nil, err
			}
			df, err := br.ReadByte()
			if err != nil || df > 1 {
				return nil, fmt.Errorf("%w: reader %d read %d: df flag", ErrBadIncremental, i, j)
			}
			rv.ins = append(rv.ins, trace.Ins(ins))
			rv.addrs = append(rv.addrs, addr)
			rv.vals = append(rv.vals, val)
			rv.sizes = append(rv.sizes, size)
			rv.df = append(rv.df, df == 1)
		}
		inc.readers = append(inc.readers, rv)
	}

	writeCount, err := getU("write count")
	if err != nil || writeCount > maxIncrementalWrites {
		return nil, fmt.Errorf("%w: write count", ErrBadIncremental)
	}
	prev := uint64(0)
	for i := uint64(0); i < writeCount; i++ {
		d, err := getU("write addr delta")
		if err != nil {
			return nil, err
		}
		addr := prev + d
		if addr < prev {
			return nil, fmt.Errorf("%w: write %d: address overflow", ErrBadIncremental, i)
		}
		prev = addr
		size, err := br.ReadByte()
		if err != nil || size == 0 || size > maxAccessSize {
			return nil, fmt.Errorf("%w: write %d: size", ErrBadIncremental, i)
		}
		ins, err := getU("write ins")
		if err != nil {
			return nil, err
		}
		val, err := getU("write val")
		if err != nil {
			return nil, err
		}
		test, err := getU("write test id")
		if err != nil || test > maxDecodedTestID {
			return nil, fmt.Errorf("%w: write %d: test id", ErrBadIncremental, i)
		}
		inc.idx.addWrite(writeRec{addr: addr, val: val, ins: trace.Ins(ins), size: size, test: int32(test)})
	}
	if writeCount > 0 || len(inc.readers) > 0 {
		inc.idx.seal()
	}
	if extra, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: %d trailing bytes (first %#x)", ErrBadIncremental, br.Buffered()+1, extra)
	}
	return inc, nil
}
