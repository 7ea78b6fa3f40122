package sched

import (
	"encoding/binary"
	"errors"
	"fmt"

	"snowboard/internal/cover"
	"snowboard/internal/detect"
	"snowboard/internal/pmc"
	"snowboard/internal/trace"
	"snowboard/internal/wire"
)

// An Outcome crosses a queue as compact bytes: a queue worker encodes it
// once (core.Worker.Do) and the coordinator's fold decodes it once
// (Decoder, in the fold of core's stage-4 batch), in-process or
// over TCP alike. The form is
// outcomeVersion, then the fields in declaration order: ints as zigzag
// varints, unsigned values (instructions, addresses, values) as
// uvarints, byte-sized kinds and sizes as one byte, bools as 0 or 1 (an
// issue's two as one flags byte), a string or list as a uvarint count then
// its elements, each issue followed by the trial it surfaced on, and Repro
// as a 0/1 presence byte then its fields, and last, only when the outcome
// carries any, the test's segments (each its four instructions and its hit
// count) and its alias pairs, each list a count then its elements, so an
// outcome without coverage encodes as it did before outcomes carried it.
// Equal outcomes encode to equal bytes.
const outcomeVersion = 1

// Smallest encoded element of each list, in bytes: a declared count is
// refused when the bytes left could not hold that many elements, so no
// count sizes an allocation past the input.
const (
	minIssueBytes = 7 // kind, desc length, two instructions, bug id, flags, trial
	minPMCBytes   = pmc.MinPMCBytes
	minSigBytes   = 4 // kind, instruction, address, size
	minFlipBytes  = 1
	minSegBytes   = 5 // four instructions, hit count
	minPairBytes  = 2 // two instructions
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
	if st != nil {
		b = binary.AppendVarint(b, st.Seed)
		b = binary.AppendVarint(b, int64(st.Trial))
		b = binary.AppendUvarint(b, uint64(len(st.PMCs)))
		for _, p := range st.PMCs {
			b = pmc.AppendPMC(b, p)
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
	}
	if len(o.Segments) == 0 && len(o.Pairs) == 0 {
		return b
	}
	b = binary.AppendUvarint(b, uint64(len(o.Segments)))
	for _, e := range o.Segments {
		for _, ins := range [4]trace.Ins{e.Seg.First.Write, e.Seg.First.Read, e.Seg.Second.Write, e.Seg.Second.Read} {
			b = binary.AppendUvarint(b, uint64(ins))
		}
		b = binary.AppendVarint(b, int64(e.N))
	}
	b = binary.AppendUvarint(b, uint64(len(o.Pairs)))
	for _, p := range o.Pairs {
		b = binary.AppendUvarint(b, uint64(p.First))
		b = binary.AppendUvarint(b, uint64(p.Second))
	}
	return b
}

// Decoder decodes a stream of outcomes into storage it keeps for the next
// one, for a reader that copies out what it keeps (the coordinator's
// fold): the lists of the outcome Decode returns are valid until the next
// Decode, and an issue description is interned, so one the decoder has
// seen before costs no allocation. Repro is always fresh: the fold keeps
// it by reference. The zero Decoder is ready to use.
type Decoder struct {
	out   Outcome
	descs map[string]string
}

// Decode replaces the decoder's outcome with the one src encodes and
// returns it. src is untrusted: truncated input, trailing bytes, an
// unknown version or a value out of its field's range is an error wrapping
// ErrBadOutcome, never a panic, and leaves the zero Outcome. An empty
// list decodes as nil from a fresh decoder and as empty from a used one.
// The outcome keeps no reference to src.
func (d *Decoder) Decode(src []byte) (*Outcome, error) {
	err := d.out.decode(src, d)
	return &d.out, err
}

// desc returns b as a string, interned.
func (d *Decoder) desc(b []byte) string {
	if s, ok := d.descs[string(b)]; ok {
		return s
	}
	if d.descs == nil {
		d.descs = make(map[string]string)
	}
	s := string(b)
	d.descs[s] = s
	return s
}

// list returns n zeroed elements in s's storage when it has room.
func list[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// decode is Decode into o, reusing its lists.
func (o *Outcome) decode(src []byte, d *Decoder) error {
	old := *o
	*o = Outcome{
		Issues: old.Issues[:0], IssueTrials: old.IssueTrials[:0],
		Segments: old.Segments[:0], Pairs: old.Pairs[:0],
	}
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
		o.Issues = list(old.Issues, n)
		o.IssueTrials = list(old.IssueTrials, n)
		for i := range o.Issues {
			is := &o.Issues[i]
			is.Kind = detect.IssueKind(r.Byte())
			is.Desc = d.desc(r.Bytes(r.Count(1)))
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
				st.PMCs[i] = pmc.ReadPMC(r)
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
	if r.Len() > 0 {
		if n := r.Count(minSegBytes); n > 0 {
			o.Segments = list(old.Segments, n)
			for i := range o.Segments {
				s := &o.Segments[i].Seg
				s.First.Write, s.First.Read = trace.ReadIns(r), trace.ReadIns(r)
				s.Second.Write, s.Second.Read = trace.ReadIns(r), trace.ReadIns(r)
				o.Segments[i].N = readInt(r)
			}
		}
		if n := r.Count(minPairBytes); n > 0 {
			o.Pairs = list(old.Pairs, n)
			for i := range o.Pairs {
				o.Pairs[i] = cover.Pair{First: trace.ReadIns(r), Second: trace.ReadIns(r)}
			}
		}
		if len(o.Segments) == 0 && len(o.Pairs) == 0 {
			r.Fail("empty coverage lists")
		}
	}
	if err := r.Done(); err != nil {
		*o = Outcome{}
		return err
	}
	return nil
}

func readInt(r *wire.Reader) int { return int(r.Varint()) }
