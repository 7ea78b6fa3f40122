package sched

import (
	"encoding/binary"
	"errors"
	"fmt"

	"snowboard/internal/detect"
	"snowboard/internal/pmc"
	"snowboard/internal/trace"
	"snowboard/internal/wire"
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
	minPMCBytes   = 2*pmc.MinKeyBytes + 1
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
	b = wire.AppendBool(b, o.Exercised)
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
	b = wire.AppendBool(b, st != nil)
	if st == nil {
		return b
	}
	b = binary.AppendVarint(b, st.Seed)
	b = binary.AppendVarint(b, int64(st.Trial))
	b = binary.AppendUvarint(b, uint64(len(st.PMCs)))
	for i := range st.PMCs {
		p := &st.PMCs[i]
		b = pmc.AppendKey(pmc.AppendKey(b, p.Write), p.Read)
		b = wire.AppendBool(b, p.DFLeader)
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
	r := wire.NewReader(src[1:], ErrBadOutcome)
	o.Trials = readInt(r)
	o.Exercised = r.Bool()
	o.ExercisedTrial = readInt(r)
	o.ExposedTrial = readInt(r)
	if n := r.Count(minIssueBytes); n > 0 {
		o.Issues = make([]detect.Issue, n)
		o.IssueTrials = make([]int, n)
		for i := range o.Issues {
			is := &o.Issues[i]
			is.Kind = detect.IssueKind(r.Byte())
			is.Desc = string(r.Bytes(r.Count(1)))
			is.WriteIns = trace.ReadIns(r)
			is.ReadIns = trace.ReadIns(r)
			is.BugID = readInt(r)
			flags := r.Byte()
			if flags&^(issueHarmful|issueTorn) != 0 {
				r.Fail("issue flags")
			}
			is.Harmful, is.Torn = flags&issueHarmful != 0, flags&issueTorn != 0
			o.IssueTrials[i] = readInt(r)
		}
	}
	o.Switches = readInt(r)
	o.Steps = readInt(r)
	o.NewCoverPairs = readInt(r)
	o.NewSegments = readInt(r)
	if r.Bool() {
		st := &ReproState{Seed: r.Varint(), Trial: readInt(r)}
		if n := r.Count(minPMCBytes); n > 0 {
			st.PMCs = make([]pmc.PMC, n)
			for i := range st.PMCs {
				p := &st.PMCs[i]
				p.Write = pmc.ReadKey(r)
				p.Read = pmc.ReadKey(r)
				p.DFLeader = r.Bool()
			}
		}
		if n := r.Count(minSigBytes); n > 0 {
			st.Flags = make([]AccessSig, n)
			for i := range st.Flags {
				f := &st.Flags[i]
				f.Kind = trace.Kind(r.Byte())
				f.Ins = trace.ReadIns(r)
				f.Addr = r.Uvarint()
				f.Size = r.Byte()
			}
		}
		if n := r.Count(minFlipBytes); n > 0 {
			st.Flips = make([]int, n)
			for i := range st.Flips {
				st.Flips[i] = readInt(r)
			}
		}
		o.Repro = st
	}
	if err := r.Done(); err != nil {
		*o = Outcome{}
		return err
	}
	return nil
}

func readInt(r *wire.Reader) int { return int(r.Varint()) }
