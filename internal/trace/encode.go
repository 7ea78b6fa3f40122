package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
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

const (
	fKindWrite = 1 << iota
	fAtomic
	fMarked
	fStack
	fRCU
	fLocks
)

// WriteBlock writes the record stream (count + delta/varint records) to
// bw. It carries no magic or version: the artifact formats that embed it
// frame several blocks inside their own envelope. The caller owns flushing
// bw.
func WriteBlock(bw *bufio.Writer, b *Block) error {
	var scratch [binary.MaxVarintLen64]byte
	putU := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	putS := func(v int64) error {
		n := binary.PutVarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	if err := putU(uint64(b.Len())); err != nil {
		return err
	}
	prevAddr := uint64(0)
	for i := range b.rows {
		r := &b.rows[i]
		m := r.meta
		locks := r.locks.view()
		var flags byte
		if m&metaWrite != 0 {
			flags |= fKindWrite
		}
		if m&metaAtomic != 0 {
			flags |= fAtomic
		}
		if m&metaMarked != 0 {
			flags |= fMarked
		}
		if m&metaStack != 0 {
			flags |= fStack
		}
		if m&metaRCU != 0 {
			flags |= fRCU
		}
		if len(locks) > 0 {
			flags |= fLocks
		}
		if err := bw.WriteByte(flags); err != nil {
			return err
		}
		if err := putU(uint64(m >> metaThreadShift)); err != nil {
			return err
		}
		if err := putU(uint64(r.ins)); err != nil {
			return err
		}
		if err := putS(int64(r.addr) - int64(prevAddr)); err != nil {
			return err
		}
		prevAddr = r.addr
		if err := bw.WriteByte(byte(m & metaSizeMask)); err != nil {
			return err
		}
		if err := putU(r.val); err != nil {
			return err
		}
		if len(locks) > 0 {
			if err := putU(uint64(len(locks))); err != nil {
				return err
			}
			prevLock := uint64(0)
			for _, l := range locks {
				if err := putS(int64(l) - int64(prevLock)); err != nil {
					return err
				}
				prevLock = l
			}
		}
	}
	return nil
}

// ReadBlock parses one bare record stream written by WriteBlock, leaving br
// positioned after the block's last record. Decoding errors never panic;
// any malformed input yields an error wrapping ErrBadTrace. Decoded
// locksets are interned.
func ReadBlock(br *bufio.Reader) (Block, error) {
	var out Block
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return out, fmt.Errorf("%w: count: %v", ErrBadTrace, err)
	}
	const sanityMax = 1 << 28
	if count > sanityMax {
		return out, fmt.Errorf("%w: implausible count %d", ErrBadTrace, count)
	}
	// The claimed count is untrusted until records actually arrive: clamp
	// the preallocation so a short hostile input can't demand gigabytes.
	capHint := count
	if capHint > 4096 {
		capHint = 4096
	}
	out.rows = make([]row, 0, capHint)
	prevAddr := uint64(0)
	var lockBuf []uint64
	for i := uint64(0); i < count; i++ {
		flags, err := br.ReadByte()
		if err != nil {
			return out, fmt.Errorf("%w: flags: %v", ErrBadTrace, err)
		}
		th, err := binary.ReadUvarint(br)
		if err != nil {
			return out, fmt.Errorf("%w: thread: %v", ErrBadTrace, err)
		}
		if th > maxThread {
			return out, fmt.Errorf("%w: thread %d", ErrBadTrace, th)
		}
		ins, err := binary.ReadUvarint(br)
		if err != nil {
			return out, fmt.Errorf("%w: ins: %v", ErrBadTrace, err)
		}
		dAddr, err := binary.ReadVarint(br)
		if err != nil {
			return out, fmt.Errorf("%w: addr: %v", ErrBadTrace, err)
		}
		addr := uint64(int64(prevAddr) + dAddr)
		prevAddr = addr
		size, err := br.ReadByte()
		if err != nil {
			return out, fmt.Errorf("%w: size: %v", ErrBadTrace, err)
		}
		if size == 0 || size > 8 {
			return out, fmt.Errorf("%w: size %d", ErrBadTrace, size)
		}
		val, err := binary.ReadUvarint(br)
		if err != nil {
			return out, fmt.Errorf("%w: val: %v", ErrBadTrace, err)
		}
		var kind Kind
		if flags&fKindWrite != 0 {
			kind = Write
		}
		var ls LockSet
		if flags&fLocks != 0 {
			n, err := binary.ReadUvarint(br)
			if err != nil || n > 64 {
				return out, fmt.Errorf("%w: lock count", ErrBadTrace)
			}
			lockBuf = lockBuf[:0]
			prevLock := uint64(0)
			for j := uint64(0); j < n; j++ {
				d, err := binary.ReadVarint(br)
				if err != nil {
					return out, fmt.Errorf("%w: lock: %v", ErrBadTrace, err)
				}
				l := uint64(int64(prevLock) + d)
				lockBuf = append(lockBuf, l)
				prevLock = l
			}
			ls = InternLocks(lockBuf)
		}
		out.rows = append(out.rows, row{
			addr:  addr,
			val:   val,
			ins:   Ins(ins),
			meta:  packMeta(int(th), kind, size, flags&fAtomic != 0, flags&fMarked != 0, flags&fStack != 0, flags&fRCU != 0),
			locks: ls,
		})
	}
	return out, nil
}
