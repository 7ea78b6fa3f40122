package trace

// Block is the trace storage: one slice of rows, a row per access. A row
// is 24 bytes — address, value, static site and packed meta, no padding —
// and holds no pointer, so the slice is one allocation the garbage
// collector never scans, Record writes one row in place, and a pass that
// reads several fields of an access — every post-trial analysis does —
// touches one cache line where five parallel columns made it touch five.
// Against those columns, on a 2-vCPU Xeon @ 2.10 GHz, rows raised the
// bench's stage 1–3 workload (frontend) from 219k to 233k trials/s and cut
// a profiled access's allocations from 0.159 to 0.064. A row carries no
// lockset: the locks an access was made under follow from its thread's
// lock-word rows before it (HeldLocks). Dropping the 4-byte set id and the
// 4 bytes of padding it cost, with the VM's interning of a set at every
// lock operation and its packing of the meta field by field, cut Record
// from 12.2% to 2.5% of a CPU profile of hunt's spec, and the VM's access
// path around it from 20.0% to 10.2%; with triage reusing its replayer,
// hunt rose from 137.9k to 148.3k trials/s (+7.6%, ten alternating pairs
// on the same host).
// Sequence numbers are implicit: an access's Seq is its index. The VM
// records into a Block with zero steady-state allocations (Reset keeps
// capacity across trials), analyses read rows through the …At accessors,
// and []Access values are materialized only at API boundaries (At).
//
// Trace is an alias for Block: every execution — a sequential profiling run
// or one trial of a concurrent test — records into this representation.
type Block struct {
	rows []row
}

// row is one recorded access.
type row struct {
	addr, val uint64
	ins       Ins
	meta      Meta
}

// Trace is the ordered sequence of accesses collected during one execution.
type Trace = Block

// Meta is a row's packed size, kind, flag bits and thread id. The size is
// the low four bits, so Meta(size) is its part. The VM keeps a thread's id
// and RCU bit in one and ORs in each access's own bits.
type Meta uint32

// Meta bits.
const (
	metaSize        Meta = 0xF // bits 0-3: access size (1..8)
	MetaWrite       Meta = 1 << 4
	MetaAtomic      Meta = 1 << 5
	MetaMarked      Meta = 1 << 6
	MetaStack       Meta = 1 << 7
	MetaRCU         Meta = 1 << 8
	metaThreadShift      = 16 // bits 16-31: thread id
)

// ThreadMeta returns the meta bits naming thread as an access's performer.
func ThreadMeta(thread int) Meta { return Meta(thread) << metaThreadShift }

// Kind returns Read or Write.
func (m Meta) Kind() Kind { return Kind(m >> 4 & 1) }

// Meta packs the access's fields but its address, value and site.
func (a *Access) Meta() Meta {
	m := ThreadMeta(a.Thread) | Meta(a.Size)&metaSize
	if a.Kind == Write {
		m |= MetaWrite
	}
	if a.Atomic {
		m |= MetaAtomic
	}
	if a.Marked {
		m |= MetaMarked
	}
	if a.Stack {
		m |= MetaStack
	}
	if a.RCU {
		m |= MetaRCU
	}
	return m
}

// Record appends one access, given by its fields: the VM's access path has
// them as scalars and builds no Access value for an access that ends in no
// yield. Its sequence number is its position. Record inlines into that
// path, and the append stores the four fields straight into the slice; a
// reslice-and-store body does not inline and ran slower per access.
func (b *Block) Record(ins Ins, addr, val uint64, meta Meta) {
	b.rows = append(b.rows, row{addr: addr, val: val, ins: ins, meta: meta})
}

// Len returns the number of recorded accesses.
func (b *Block) Len() int { return len(b.rows) }

// Reset drops all recorded accesses but keeps the capacity, so a Block
// reused across trials stops allocating once warm.
func (b *Block) Reset() { b.rows = b.rows[:0] }

// At materializes the i-th access as an Access value (Seq = i).
func (b *Block) At(i int) Access {
	r := &b.rows[i]
	m := r.meta
	return Access{
		Thread: int(m >> metaThreadShift),
		Seq:    i,
		Ins:    r.ins,
		Kind:   m.Kind(),
		Addr:   r.addr,
		Size:   uint8(m & metaSize),
		Val:    r.val,
		Atomic: m&MetaAtomic != 0,
		Marked: m&MetaMarked != 0,
		Stack:  m&MetaStack != 0,
		RCU:    m&MetaRCU != 0,
	}
}

// Field accessors, for analyses that iterate the rows directly.

// ThreadAt returns the thread id of the i-th access.
func (b *Block) ThreadAt(i int) int { return int(b.rows[i].meta >> metaThreadShift) }

// InsAt returns the static access site of the i-th access.
func (b *Block) InsAt(i int) Ins { return b.rows[i].ins }

// KindAt returns Read or Write for the i-th access.
func (b *Block) KindAt(i int) Kind { return b.rows[i].meta.Kind() }

// IsWriteAt reports whether the i-th access is a store.
func (b *Block) IsWriteAt(i int) bool { return b.rows[i].meta&MetaWrite != 0 }

// AddrAt returns the start address of the i-th access.
func (b *Block) AddrAt(i int) uint64 { return b.rows[i].addr }

// SizeAt returns the range length of the i-th access.
func (b *Block) SizeAt(i int) uint8 { return uint8(b.rows[i].meta & metaSize) }

// EndAt returns the first address past the i-th access's range.
func (b *Block) EndAt(i int) uint64 {
	r := &b.rows[i]
	return r.addr + uint64(r.meta&metaSize)
}

// ValAt returns the value read or written by the i-th access.
func (b *Block) ValAt(i int) uint64 { return b.rows[i].val }

// AtomicAt reports whether the i-th access is lock-word traffic.
func (b *Block) AtomicAt(i int) bool { return b.rows[i].meta&MetaAtomic != 0 }

// MarkedAt reports whether the i-th access is annotated.
func (b *Block) MarkedAt(i int) bool { return b.rows[i].meta&MetaMarked != 0 }

// StackAt reports whether the i-th access hits the accessor's stack.
func (b *Block) StackAt(i int) bool { return b.rows[i].meta&MetaStack != 0 }

// OverlapsAt reports whether accesses i and j touch at least one common byte.
func (b *Block) OverlapsAt(i, j int) bool {
	return b.rows[i].addr < b.EndAt(j) && b.rows[j].addr < b.EndAt(i)
}
