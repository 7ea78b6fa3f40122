package trace

// Block is the trace storage: one slice of rows, a row per access. A row
// is 28 bytes of fields padded to 32 and holds no pointer, so the slice is
// one allocation the garbage collector never scans, Record is one append,
// and a pass that reads several fields of an access — every post-trial
// analysis does — touches one cache line where five parallel columns made
// it touch five. Against those columns, on a 2-vCPU Xeon @ 2.10 GHz, the
// rows raised the bench's stage 1–3 workload (frontend) from 219k to 233k
// trials/s and cut a profiled access's allocations from 0.159 to 0.064;
// the padding costs 0.3–2.5% more bytes per trial. The packed meta field
// carries size, kind, the flag bits and the thread id. Sequence numbers
// are implicit: an access's Seq is its index. The VM appends into a Block
// with zero steady-state allocations (Reset keeps capacity across trials),
// analyses read rows through the …At accessors, and []Access values are
// materialized only at API boundaries (At).
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
	meta      uint32
	locks     LockSet
}

// Trace is the ordered sequence of accesses collected during one execution.
type Trace = Block

// meta field packing. Bits 4-8 are also a trace record's flag bits 0-4 on
// the wire (encode.go).
const (
	metaSizeMask    = 0xF // bits 0-3: access size (1..8)
	metaWrite       = 1 << 4
	metaAtomic      = 1 << 5
	metaMarked      = 1 << 6
	metaStack       = 1 << 7
	metaRCU         = 1 << 8
	metaThreadShift = 16 // bits 16-31: thread id

	// maxThread is the largest representable thread id (16 bits).
	maxThread = 0xFFFF
)

func packMeta(thread int, kind Kind, size uint8, atomic, marked, stack, rcu bool) uint32 {
	m := uint32(size)&metaSizeMask | uint32(thread)<<metaThreadShift
	if kind == Write {
		m |= metaWrite
	}
	if atomic {
		m |= metaAtomic
	}
	if marked {
		m |= metaMarked
	}
	if stack {
		m |= metaStack
	}
	if rcu {
		m |= metaRCU
	}
	return m
}

// Record appends one access, given by its fields: the VM's access path has
// them as scalars and builds no Access value for an access that ends in no
// yield. Its sequence number is its position.
func (b *Block) Record(thread int, ins Ins, kind Kind, addr uint64, size uint8, val uint64, atomic, marked, stack, rcu bool, locks LockSet) {
	b.rows = append(b.rows, row{addr: addr, val: val, ins: ins, meta: packMeta(thread, kind, size, atomic, marked, stack, rcu), locks: locks})
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
		Kind:   Kind(m >> 4 & 1),
		Addr:   r.addr,
		Size:   uint8(m & metaSizeMask),
		Val:    r.val,
		Atomic: m&metaAtomic != 0,
		Marked: m&metaMarked != 0,
		Stack:  m&metaStack != 0,
		RCU:    m&metaRCU != 0,
		Locks:  r.locks,
	}
}

// Field accessors, for analyses that iterate the rows directly.

// ThreadAt returns the thread id of the i-th access.
func (b *Block) ThreadAt(i int) int { return int(b.rows[i].meta >> metaThreadShift) }

// InsAt returns the static access site of the i-th access.
func (b *Block) InsAt(i int) Ins { return b.rows[i].ins }

// KindAt returns Read or Write for the i-th access.
func (b *Block) KindAt(i int) Kind { return Kind(b.rows[i].meta >> 4 & 1) }

// IsWriteAt reports whether the i-th access is a store.
func (b *Block) IsWriteAt(i int) bool { return b.rows[i].meta&metaWrite != 0 }

// AddrAt returns the start address of the i-th access.
func (b *Block) AddrAt(i int) uint64 { return b.rows[i].addr }

// SizeAt returns the range length of the i-th access.
func (b *Block) SizeAt(i int) uint8 { return uint8(b.rows[i].meta & metaSizeMask) }

// EndAt returns the first address past the i-th access's range.
func (b *Block) EndAt(i int) uint64 {
	r := &b.rows[i]
	return r.addr + uint64(r.meta&metaSizeMask)
}

// ValAt returns the value read or written by the i-th access.
func (b *Block) ValAt(i int) uint64 { return b.rows[i].val }

// AtomicAt reports whether the i-th access is lock-word traffic.
func (b *Block) AtomicAt(i int) bool { return b.rows[i].meta&metaAtomic != 0 }

// MarkedAt reports whether the i-th access is annotated.
func (b *Block) MarkedAt(i int) bool { return b.rows[i].meta&metaMarked != 0 }

// StackAt reports whether the i-th access hits the accessor's stack.
func (b *Block) StackAt(i int) bool { return b.rows[i].meta&metaStack != 0 }

// OverlapsAt reports whether accesses i and j touch at least one common byte.
func (b *Block) OverlapsAt(i, j int) bool {
	return b.rows[i].addr < b.EndAt(j) && b.rows[j].addr < b.EndAt(i)
}
