package corpus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"snowboard/internal/wire"
)

// Compact binary serialization for whole corpora, the artifact the fuzz
// stage persists into the content-addressed store. JSON (Marshal/Unmarshal)
// stays the human-facing per-program form; this codec is the bulk form:
// varint-coded, canonical (equal corpora encode to identical bytes, so
// content addresses are stable), and hardened against hostile input (the
// decoder reads through a wire.Reader, validates structure and never
// panics).
//
// Layout:
//
//	magic "SBCO" | version u8 | nprogs uvarint | programs...
//
// Each program:
//
//	ncalls uvarint, then per call: nr uvarint | nargs uvarint, then per
//	arg: kind u8 | value uvarint (literal for ConstArg, call index for
//	ResultArg)

const (
	corpusMagic   = "SBCO"
	corpusVersion = 1

	// Sanity caps applied before allocation when decoding untrusted bytes.
	maxProgs        = 1 << 22
	maxCallsPerProg = 1 << 16
	maxArgsPerCall  = 1 << 8

	// Smallest encoded elements, in bytes: a program with no calls, a call
	// with no args (number, arg count), an arg (kind, value).
	minProgBytes = 1
	minCallBytes = 2
	minArgBytes  = 2

	// estCallBytes is a typical encoded call's size, which presizes
	// Append's output.
	estCallBytes = 8
)

// CodecVersion identifies the corpus encoding; stage digests mix it in so a
// format change invalidates stored artifacts instead of misdecoding them.
const CodecVersion = corpusVersion

// ErrBadCorpus reports a malformed serialized corpus.
var ErrBadCorpus = errors.New("corpus: malformed encoding")

// Append appends the corpus' compact canonical form to dst.
func Append(dst []byte, c *Corpus) []byte {
	calls := 0
	for _, p := range c.Progs {
		calls += len(p.Calls)
	}
	dst = slices.Grow(dst, len(corpusMagic)+1+binary.MaxVarintLen64+len(c.Progs)+calls*estCallBytes)
	dst = append(dst, corpusMagic...)
	dst = append(dst, corpusVersion)
	dst = binary.AppendUvarint(dst, uint64(len(c.Progs)))
	for _, p := range c.Progs {
		dst = binary.AppendUvarint(dst, uint64(len(p.Calls)))
		for _, call := range p.Calls {
			dst = binary.AppendUvarint(dst, uint64(call.Nr))
			dst = binary.AppendUvarint(dst, uint64(len(call.Args)))
			for _, a := range call.Args {
				v := a.Val
				if a.Kind == ResultArg {
					v = uint64(a.Ref)
				}
				dst = binary.AppendUvarint(append(dst, byte(a.Kind)), v)
			}
		}
	}
	return dst
}

// Parse parses a compact corpus, validating every program (syscall
// numbers, argument counts, resource references) and rejecting duplicates
// and trailing bytes, so a successful parse reproduces the encoded corpus
// exactly — same programs, same order, same dedup state.
func Parse(src []byte) (*Corpus, error) {
	r := wire.NewFramed(src, corpusMagic, corpusVersion, ErrBadCorpus)
	nprogs := r.Count(minProgBytes)
	if nprogs > maxProgs {
		r.Fail("program count")
	}
	c := NewCorpus()
	for pi := range nprogs {
		ncalls := r.Count(minCallBytes)
		if ncalls > maxCallsPerProg {
			r.Fail(fmt.Sprintf("prog %d: call count", pi))
			ncalls = 0
		}
		// Clamp the preallocation: the count is untrusted until calls arrive.
		p := &Prog{Calls: make([]Call, 0, min(ncalls, 1024))}
		for ci := range ncalls {
			call := Call{Nr: int(r.Uvarint())}
			nargs := r.Count(minArgBytes)
			if nargs > maxArgsPerCall {
				r.Fail(fmt.Sprintf("prog %d call %d: arg count", pi, ci))
				nargs = 0
			}
			if nargs > 0 {
				call.Args = make([]Arg, 0, nargs)
			}
			for ai := range nargs {
				kind, v := ArgKind(r.Byte()), r.Uvarint()
				switch {
				case kind == ConstArg:
					call.Args = append(call.Args, Const(v))
				case kind == ResultArg && v <= maxCallsPerProg:
					call.Args = append(call.Args, Result(int(v)))
				default:
					r.Fail(fmt.Sprintf("prog %d call %d arg %d: kind %d value %d", pi, ci, ai, kind, v))
				}
			}
			p.Calls = append(p.Calls, call)
		}
		if err := p.Validate(); err != nil {
			r.Fail(fmt.Sprintf("prog %d: %v", pi, err))
		} else if !c.Add(p) {
			r.Fail(fmt.Sprintf("prog %d: duplicate program", pi))
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

// EncodeCorpus writes c's Append form to w. It stays only because bench/
// calls it.
func EncodeCorpus(w io.Writer, c *Corpus) error {
	_, err := w.Write(Append(nil, c))
	return err
}

// DecodeCorpus parses the Parse form read from r. It stays only because
// bench/ calls it.
func DecodeCorpus(r io.Reader) (*Corpus, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCorpus, err)
	}
	return Parse(b)
}
