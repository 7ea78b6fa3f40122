package trace

// Block is the columnar (structure-of-arrays) trace storage: one parallel
// column per Access feature, with the packed meta column carrying size,
// kind, the flag bits, and the thread id. Sequence numbers are implicit —
// an access's Seq is its index. The VM appends into a Block with zero
// steady-state allocations (Reset keeps column capacity across trials),
// analyses iterate the columns directly, and []Access views are
// materialized only at API boundaries (At).
//
// Trace is an alias for Block: every execution — a sequential profiling run
// or one trial of a concurrent test — records into this representation.
type Block struct {
	ins   []Ins
	addrs []uint64
	vals  []uint64
	meta  []uint32
	locks []LockSet
}

// Trace is the ordered sequence of accesses collected during one execution,
// stored columnar.
type Trace = Block

// meta column packing.
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
// them as scalars and builds no row value for an access that ends in no
// yield. Its sequence number is its position.
func (b *Block) Record(thread int, ins Ins, kind Kind, addr uint64, size uint8, val uint64, atomic, marked, stack, rcu bool, locks LockSet) {
	b.ins = append(b.ins, ins)
	b.addrs = append(b.addrs, addr)
	b.vals = append(b.vals, val)
	b.meta = append(b.meta, packMeta(thread, kind, size, atomic, marked, stack, rcu))
	b.locks = append(b.locks, locks)
}

// Len returns the number of recorded accesses.
func (b *Block) Len() int { return len(b.meta) }

// Reset drops all recorded accesses but keeps the column capacity, so a
// Block reused across trials stops allocating once warm.
func (b *Block) Reset() {
	b.ins = b.ins[:0]
	b.addrs = b.addrs[:0]
	b.vals = b.vals[:0]
	b.meta = b.meta[:0]
	b.locks = b.locks[:0]
}

// At materializes the i-th access as a row value (Seq = i).
func (b *Block) At(i int) Access {
	m := b.meta[i]
	return Access{
		Thread: int(m >> metaThreadShift),
		Seq:    i,
		Ins:    b.ins[i],
		Kind:   Kind(m >> 4 & 1),
		Addr:   b.addrs[i],
		Size:   uint8(m & metaSizeMask),
		Val:    b.vals[i],
		Atomic: m&metaAtomic != 0,
		Marked: m&metaMarked != 0,
		Stack:  m&metaStack != 0,
		RCU:    m&metaRCU != 0,
		Locks:  b.locks[i],
	}
}

// Column accessors, for analyses that iterate the columnar form directly.

// ThreadAt returns the thread id of the i-th access.
func (b *Block) ThreadAt(i int) int { return int(b.meta[i] >> metaThreadShift) }

// InsAt returns the static access site of the i-th access.
func (b *Block) InsAt(i int) Ins { return b.ins[i] }

// KindAt returns Read or Write for the i-th access.
func (b *Block) KindAt(i int) Kind { return Kind(b.meta[i] >> 4 & 1) }

// IsWriteAt reports whether the i-th access is a store.
func (b *Block) IsWriteAt(i int) bool { return b.meta[i]&metaWrite != 0 }

// AddrAt returns the start address of the i-th access.
func (b *Block) AddrAt(i int) uint64 { return b.addrs[i] }

// SizeAt returns the range length of the i-th access.
func (b *Block) SizeAt(i int) uint8 { return uint8(b.meta[i] & metaSizeMask) }

// EndAt returns the first address past the i-th access's range.
func (b *Block) EndAt(i int) uint64 { return b.addrs[i] + uint64(b.meta[i]&metaSizeMask) }

// ValAt returns the value read or written by the i-th access.
func (b *Block) ValAt(i int) uint64 { return b.vals[i] }

// AtomicAt reports whether the i-th access is lock-word traffic.
func (b *Block) AtomicAt(i int) bool { return b.meta[i]&metaAtomic != 0 }

// MarkedAt reports whether the i-th access is annotated.
func (b *Block) MarkedAt(i int) bool { return b.meta[i]&metaMarked != 0 }

// StackAt reports whether the i-th access hits the accessor's stack.
func (b *Block) StackAt(i int) bool { return b.meta[i]&metaStack != 0 }

// OverlapsAt reports whether accesses i and j touch at least one common byte.
func (b *Block) OverlapsAt(i, j int) bool {
	return b.addrs[i] < b.EndAt(j) && b.addrs[j] < b.EndAt(i)
}
