package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"snowboard/internal/wire"
)

// Compact binary serialization for trace blocks, the record stream that
// profile-set artifacts embed (internal/pmc's codec). The format is
// delta/varint coded: sequence numbers are implicit in record order, and
// addresses are spatially clustered, so zig-zag address deltas shrink a
// block by roughly an order of magnitude compared to fixed-width records.
//
// Layout:
//
//	count uvarint | records...
//
// Each record:
//
//	flags u8            bit0 kind=write, bit1 atomic, bit2 marked,
//	                    bit3 stack, bit4 rcu, bit5 has-locks
//	thread uvarint
//	ins    uvarint      (absolute; ids are hash-derived, deltas don't help)
//	addr   svarint      (delta from previous record's addr)
//	size   u8
//	val    uvarint
//	locks  uvarint n, then n svarint deltas   (only when bit5 set)
//
// Locksets travel as explicit address lists: the in-memory interned
// LockSet ids are process-local and never serialized.

// CodecVersion identifies the record encoding; stage digests mix it in so
// a format change invalidates stored artifacts instead of misdecoding them.
const CodecVersion = 1

// ErrBadTrace reports a malformed serialized trace.
var ErrBadTrace = errors.New("trace: malformed encoding")

// A record's flag bits 0-4 (write, atomic, marked, stack, RCU) are its
// row's meta bits 4-8 shifted down; bit 5 says locks follow.
const (
	flagShift = 4
	flagMeta  = 0x1F
	fLocks    = 1 << 5
)

// AppendBlock appends the record stream (count + delta/varint records) to
// dst. It carries no magic or version: the artifact formats that embed it
// frame several blocks inside their own envelope.
func AppendBlock(dst []byte, b *Block) []byte {
	dst = binary.AppendUvarint(dst, uint64(b.Len()))
	prevAddr := uint64(0)
	for i := range b.rows {
		r := &b.rows[i]
		m := r.meta
		locks := r.locks.view()
		flags := byte(m >> flagShift & flagMeta)
		if len(locks) > 0 {
			flags |= fLocks
		}
		dst = append(dst, flags)
		dst = binary.AppendUvarint(dst, uint64(m>>metaThreadShift))
		dst = binary.AppendUvarint(dst, uint64(r.ins))
		dst = binary.AppendVarint(dst, int64(r.addr)-int64(prevAddr))
		prevAddr = r.addr
		dst = append(dst, byte(m&metaSizeMask))
		dst = binary.AppendUvarint(dst, r.val)
		if len(locks) > 0 {
			dst = binary.AppendUvarint(dst, uint64(len(locks)))
			prevLock := uint64(0)
			for _, l := range locks {
				dst = binary.AppendVarint(dst, int64(l)-int64(prevLock))
				prevLock = l
			}
		}
	}
	return dst
}

// Encoded record sizes, in bytes: the smallest (flags, thread, ins, addr
// delta, size and value, one byte each) and a typical one, which presizes
// the output of an encoder embedding blocks.
const (
	minRowBytes = 6
	EstRowBytes = 16
)

// ReadBlock reads one bare record stream written by AppendBlock, leaving r
// after the block's last record. A malformed block latches r's error and
// returns what was read; decoded locksets are interned.
func ReadBlock(r *wire.Reader) Block {
	var out Block
	const sanityMax = 1 << 28
	count := r.Count(minRowBytes)
	if count > sanityMax {
		r.Fail(fmt.Sprintf("implausible record count %d", count))
		return out
	}
	out.rows = make([]row, 0, min(count, 4096))
	prevAddr := uint64(0)
	var lockBuf []uint64
	for range count {
		flags := r.Byte()
		th := r.Uvarint()
		if th > maxThread {
			r.Fail(fmt.Sprintf("thread %d", th))
		}
		ins := ReadIns(r)
		addr := uint64(int64(prevAddr) + r.Varint())
		prevAddr = addr
		size := r.Byte()
		if size == 0 || size > 8 {
			r.Fail(fmt.Sprintf("access size %d", size))
		}
		val := r.Uvarint()
		var ls LockSet
		if flags&fLocks != 0 {
			n := r.Count(1)
			if n > 64 {
				r.Fail("lock count")
				n = 0
			}
			lockBuf = lockBuf[:0]
			prevLock := uint64(0)
			for range n {
				l := uint64(int64(prevLock) + r.Varint())
				lockBuf = append(lockBuf, l)
				prevLock = l
			}
			ls = InternLocks(lockBuf)
		}
		out.rows = append(out.rows, row{
			addr:  addr,
			val:   val,
			ins:   ins,
			meta:  uint32(th)<<metaThreadShift | uint32(flags&flagMeta)<<flagShift | uint32(size)&metaSizeMask,
			locks: ls,
		})
	}
	return out
}

// ReadIns reads an instruction id as a uvarint and refuses one past 32 bits.
func ReadIns(r *wire.Reader) Ins {
	v := r.Uvarint()
	if v > math.MaxUint32 {
		r.Fail("instruction out of range")
		return 0
	}
	return Ins(v)
}
