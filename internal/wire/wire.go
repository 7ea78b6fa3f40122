// Package wire is the byte-level discipline under every binary format of
// the pipeline (SBCO corpora, SBPS profile sets with their trace blocks,
// SBPM PMC sets, queue outcomes and the store's SBAR envelope). Encoders
// append to a []byte with encoding/binary's Append* functions and
// AppendBool; decoders read untrusted bytes through one Reader that latches
// its first error, so a decode loop reads every field unconditionally and
// checks once, at Done.
package wire

import (
	"encoding/binary"
	"fmt"
)

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// A Reader consumes an encoding held in memory. After its first error every
// read returns zero and the error stays; each error wraps the format's own
// sentinel. A read never panics, and no count it returns can size an
// allocation past the input.
type Reader struct {
	b   []byte
	bad error // the format's sentinel
	err error
}

// NewReader reads b, wrapping every error in bad.
func NewReader(b []byte, bad error) *Reader { return &Reader{b: b, bad: bad} }

// NewFramed reads a format that opens with its magic and a version byte,
// and fails unless b opens with magic and version.
func NewFramed(b []byte, magic string, version byte, bad error) *Reader {
	r := NewReader(b, bad)
	if m := r.Bytes(len(magic)); string(m) != magic {
		r.Fail(fmt.Sprintf("bad magic %q", m))
	}
	if v := r.Byte(); v != version {
		r.Fail(fmt.Sprintf("version %d", v))
	}
	return r
}

// Fail latches an error saying what is wrong, unless one is latched
// already, and drops the unread bytes.
func (r *Reader) Fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", r.bad, what)
	}
	r.b = nil
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.b) == 0 {
		r.Fail("truncated")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.Fail("bool out of range")
	return false
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.Fail("truncated or overlong uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a zigzag varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.Fail("truncated or overlong varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Count reads a list length and refuses one the unread bytes cannot hold
// at minBytes, the smallest encoded element, each. It is no format's sanity
// cap: it only keeps a short input from sizing a large allocation.
func (r *Reader) Count(minBytes int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b)/minBytes) {
		r.Fail("count past the input")
		return 0
	}
	return int(n)
}

// Bytes reads the next n bytes. The result aliases the input.
func (r *Reader) Bytes(n int) []byte {
	if n < 0 || n > len(r.b) {
		r.Fail("truncated")
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// Done returns the latched error, or an error if bytes are left unread.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) > 0 {
		r.Fail(fmt.Sprintf("%d trailing bytes", len(r.b)))
	}
	return r.err
}
