package sched

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"snowboard/internal/detect"
	"snowboard/internal/pmc"
	"snowboard/internal/trace"
)

// An Outcome crosses a queue as compact bytes: a queue worker encodes it
// once (core.Worker.Do) and the coordinator's fold decodes it once
// (core.Pipeline.FoldResults), in-process or over TCP alike. The form is
// outcomeVersion, then the fields in declaration order: ints as zigzag
// varints, unsigned values (instructions, addresses, values) as
// uvarints, byte-sized kinds and sizes as one byte, bools as 0 or 1 (an
// issue's two as one flags byte), a string or list as a uvarint count then
// its elements, each issue followed by the trial it surfaced on, and Repro
// as a 0/1 presence byte then its fields. Segments stays off the wire. Equal outcomes encode to
// equal bytes.
const outcomeVersion = 1

// Smallest encoded element of each list, in bytes: a declared count is
// refused when the bytes left could not hold that many elements, so no
// count sizes an allocation past the input.
const (
	minIssueBytes = 7 // kind, desc length, two instructions, bug id, flags, trial
	minKeyBytes   = 4 // instruction, address, size, value
	minPMCBytes   = 2*minKeyBytes + 1
	minSigBytes   = 4 // kind, instruction, address, size
	minFlipBytes  = 1
)

// ErrBadOutcome reports malformed outcome bytes.
var ErrBadOutcome = errors.New("sched: malformed outcome encoding")

// Issue flag bits.
const (
	issueHarmful = 1 << iota
	issueTorn
)

// Encode appends o's binary form to dst. It cannot fail.
func (o *Outcome) Encode(dst []byte) []byte {
	b := append(dst, outcomeVersion)
	b = binary.AppendVarint(b, int64(o.Trials))
	b = appendBool(b, o.Exercised)
	b = binary.AppendVarint(b, int64(o.ExercisedTrial))
	b = binary.AppendVarint(b, int64(o.ExposedTrial))
	b = binary.AppendUvarint(b, uint64(len(o.Issues)))
	for i := range o.Issues {
		is := &o.Issues[i]
		var flags byte
		if is.Harmful {
			flags |= issueHarmful
		}
		if is.Torn {
			flags |= issueTorn
		}
		b = append(b, byte(is.Kind))
		b = binary.AppendUvarint(b, uint64(len(is.Desc)))
		b = append(b, is.Desc...)
		b = binary.AppendUvarint(b, uint64(is.WriteIns))
		b = binary.AppendUvarint(b, uint64(is.ReadIns))
		b = binary.AppendVarint(b, int64(is.BugID))
		b = append(b, flags)
		b = binary.AppendVarint(b, int64(o.IssueTrials[i]))
	}
	b = binary.AppendVarint(b, int64(o.Switches))
	b = binary.AppendVarint(b, int64(o.Steps))
	b = binary.AppendVarint(b, int64(o.NewCoverPairs))
	b = binary.AppendVarint(b, int64(o.NewSegments))
	st := o.Repro
	b = appendBool(b, st != nil)
	if st == nil {
		return b
	}
	b = binary.AppendVarint(b, st.Seed)
	b = binary.AppendVarint(b, int64(st.Trial))
	b = binary.AppendUvarint(b, uint64(len(st.PMCs)))
	for i := range st.PMCs {
		p := &st.PMCs[i]
		b = appendKey(appendKey(b, &p.Write), &p.Read)
		b = appendBool(b, p.DFLeader)
	}
	b = binary.AppendUvarint(b, uint64(len(st.Flags)))
	for _, f := range st.Flags {
		b = append(b, byte(f.Kind))
		b = binary.AppendUvarint(b, uint64(f.Ins))
		b = binary.AppendUvarint(b, f.Addr)
		b = append(b, f.Size)
	}
	b = binary.AppendUvarint(b, uint64(len(st.Flips)))
	for _, f := range st.Flips {
		b = binary.AppendVarint(b, int64(f))
	}
	return b
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendKey(b []byte, k *pmc.Key) []byte {
	b = binary.AppendUvarint(b, uint64(k.Ins))
	b = binary.AppendUvarint(b, k.Addr)
	b = append(b, k.Size)
	return binary.AppendUvarint(b, k.Val)
}

// Decode replaces o with the outcome src encodes, Segments nil. src is
// untrusted: truncated input, trailing bytes, an unknown version or a value
// out of its field's range is an error wrapping ErrBadOutcome, never a
// panic. Empty lists decode as nil. o keeps no reference to src.
func (o *Outcome) Decode(src []byte) error {
	*o = Outcome{}
	switch {
	case len(src) == 0:
		return fmt.Errorf("%w: empty", ErrBadOutcome)
	case src[0] != outcomeVersion:
		return fmt.Errorf("%w: version %d, this binary reads %d", ErrBadOutcome, src[0], outcomeVersion)
	}
	r := outcomeReader{b: src[1:]}
	o.Trials = r.int()
	o.Exercised = r.bool()
	o.ExercisedTrial = r.int()
	o.ExposedTrial = r.int()
	if n := r.count(minIssueBytes); n > 0 {
		o.Issues = make([]detect.Issue, n)
		o.IssueTrials = make([]int, n)
		for i := range o.Issues {
			is := &o.Issues[i]
			is.Kind = detect.IssueKind(r.byte())
			is.Desc = r.string()
			is.WriteIns = r.ins()
			is.ReadIns = r.ins()
			is.BugID = r.int()
			flags := r.byte()
			if flags&^(issueHarmful|issueTorn) != 0 {
				r.fail("issue flags")
			}
			is.Harmful, is.Torn = flags&issueHarmful != 0, flags&issueTorn != 0
			o.IssueTrials[i] = r.int()
		}
	}
	o.Switches = r.int()
	o.Steps = r.int()
	o.NewCoverPairs = r.int()
	o.NewSegments = r.int()
	if r.bool() {
		st := &ReproState{Seed: r.int64(), Trial: r.int()}
		if n := r.count(minPMCBytes); n > 0 {
			st.PMCs = make([]pmc.PMC, n)
			for i := range st.PMCs {
				p := &st.PMCs[i]
				r.key(&p.Write)
				r.key(&p.Read)
				p.DFLeader = r.bool()
			}
		}
		if n := r.count(minSigBytes); n > 0 {
			st.Flags = make([]AccessSig, n)
			for i := range st.Flags {
				f := &st.Flags[i]
				f.Kind = trace.Kind(r.byte())
				f.Ins = r.ins()
				f.Addr = r.uvarint()
				f.Size = r.byte()
			}
		}
		if n := r.count(minFlipBytes); n > 0 {
			st.Flips = make([]int, n)
			for i := range st.Flips {
				st.Flips[i] = r.int()
			}
		}
		o.Repro = st
	}
	if r.err == nil && len(r.b) > 0 {
		r.fail(fmt.Sprintf("%d trailing bytes", len(r.b)))
	}
	if r.err != nil {
		*o = Outcome{}
		return r.err
	}
	return nil
}

// outcomeReader consumes an encoded Outcome; after the first error every
// read returns zero and the error stays.
type outcomeReader struct {
	b   []byte
	err error
}

func (r *outcomeReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrBadOutcome, what)
	}
	r.b = nil
}

func (r *outcomeReader) byte() byte {
	if len(r.b) == 0 {
		r.fail("truncated")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *outcomeReader) bool() bool {
	switch r.byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail("bool out of range")
	return false
}

func (r *outcomeReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *outcomeReader) int64() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *outcomeReader) int() int { return int(r.int64()) }

func (r *outcomeReader) ins() trace.Ins {
	v := r.uvarint()
	if v > math.MaxUint32 {
		r.fail("instruction out of range")
		return 0
	}
	return trace.Ins(v)
}

// count reads a list length and refuses one the bytes left cannot hold at
// minBytes an element.
func (r *outcomeReader) count(minBytes int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minBytes) {
		r.fail("count past the input")
		return 0
	}
	return int(n)
}

func (r *outcomeReader) string() string {
	n := r.count(1)
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *outcomeReader) key(k *pmc.Key) {
	k.Ins = r.ins()
	k.Addr = r.uvarint()
	k.Size = r.byte()
	k.Val = r.uvarint()
}
