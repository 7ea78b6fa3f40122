package pmc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"snowboard/internal/trace"
	"snowboard/internal/wire"
)

// Compact binary serialization for the identified PMC database ("SBPM"):
// entries in canonical key order (so equal sets encode to identical
// bytes), each with its bounded pair list and uncapped pair count. It is
// appended to a []byte and parsed from one through a wire.Reader:
// structural violations, trailing bytes included, yield errors wrapping
// ErrBadSet, never panics, and counts are sanity-capped before allocation.

const (
	setMagic   = "SBPM"
	setVersion = 1

	maxEntries        = 1 << 24
	maxCombinations   = int64(1) << 50
	maxDecodedPairRef = 1 << 31

	// Smallest encoded elements, in bytes: a set entry two keys, the
	// DFLeader byte, a pair count and a pair-list length; a pair two ids.
	minEntryBytes = MinPMCBytes + 2
	minPairBytes  = 2

	// estEntryBytes is a typical entry's encoded size, which presizes the
	// encoder's output.
	estEntryBytes = 48
)

// ErrBadSet reports a malformed serialized PMC set.
var ErrBadSet = errors.New("pmc: malformed PMC set encoding")

// Less orders PMCs canonically: write key, read key, then DFLeader. The
// DFLeader bit makes the order total over a set's distinct entries, so an
// unstable sort cannot leak map iteration order into a sorted list.
func Less(a, b PMC) bool {
	if a.Write != b.Write {
		return keyLess(a.Write, b.Write)
	}
	if a.Read != b.Read {
		return keyLess(a.Read, b.Read)
	}
	return !a.DFLeader && b.DFLeader
}

// keyLess orders access keys by instruction, address, size, then value.
func keyLess(a, b Key) bool {
	if a.Ins != b.Ins {
		return a.Ins < b.Ins
	}
	if a.Addr != b.Addr {
		return a.Addr < b.Addr
	}
	if a.Size != b.Size {
		return a.Size < b.Size
	}
	return a.Val < b.Val
}

// sortedPMCs returns the set's PMCs in canonical order.
func (s *Set) sortedPMCs() []PMC {
	keys := make([]PMC, 0, len(s.Entries))
	for k := range s.Entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return Less(keys[i], keys[j]) })
	return keys
}

// AppendSet appends the PMC database's compact canonical form to dst:
// entries sorted by (write key, read key, DFLeader), so equal sets — no
// matter the identification sharding or merge order that built them —
// encode to identical bytes.
func AppendSet(dst []byte, s *Set) []byte {
	keys := s.sortedPMCs()
	dst = slices.Grow(dst, len(setMagic)+1+2*binary.MaxVarintLen64+len(keys)*estEntryBytes)
	dst = append(dst, setMagic...)
	dst = append(dst, setVersion)
	dst = binary.AppendUvarint(dst, uint64(s.TotalCombinations))
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		e := s.Entries[k]
		dst = AppendPMC(dst, k)
		dst = binary.AppendUvarint(dst, uint64(e.PairCount))
		dst = binary.AppendUvarint(dst, uint64(len(e.Pairs)))
		for _, pr := range e.Pairs {
			dst = binary.AppendUvarint(dst, uint64(pr.Writer))
			dst = binary.AppendUvarint(dst, uint64(pr.Reader))
		}
	}
	return dst
}

// ParseSet parses a compact PMC database. Pair lists must respect the
// MaxPairsPerPMC bound and canonical pair order; pair counts and totals
// must be plausible.
func ParseSet(src []byte) (*Set, error) {
	r := wire.NewFramed(src, setMagic, setVersion, ErrBadSet)
	total := int64(r.Uvarint())
	if total < 0 || total > maxCombinations {
		r.Fail("total combinations")
	}
	count := r.Count(minEntryBytes)
	if count > maxEntries {
		r.Fail("entry count")
	}
	set := NewSet()
	set.TotalCombinations = total
	for i := range count {
		p := ReadPMC(r)
		for _, k := range [2]Key{p.Write, p.Read} {
			if k.Size == 0 || k.Size > 8 {
				r.Fail(fmt.Sprintf("entry %d: key size %d", i, k.Size))
			}
		}
		pairCount := int64(r.Uvarint())
		if pairCount < 0 || pairCount > maxCombinations {
			r.Fail(fmt.Sprintf("entry %d: pair count", i))
		}
		npairs := r.Count(minPairBytes)
		if npairs > MaxPairsPerPMC || pairCount < int64(npairs) {
			r.Fail(fmt.Sprintf("entry %d: pair list length", i))
			npairs = 0
		}
		if _, dup := set.Entries[p]; dup {
			r.Fail(fmt.Sprintf("entry %d: duplicate PMC", i))
		}
		e := &Entry{PMC: p, PairCount: pairCount}
		for j := range npairs {
			w, rd := r.Uvarint(), r.Uvarint()
			if w > maxDecodedPairRef || rd > maxDecodedPairRef {
				r.Fail(fmt.Sprintf("entry %d pair %d: writer or reader", i, j))
			}
			pr := Pair{Writer: int(w), Reader: int(rd)}
			// Non-strict: pair lists keep multiplicity, so equal
			// neighbours are legal; only descending order is malformed.
			if j > 0 && pairLess(pr, e.Pairs[j-1]) {
				r.Fail(fmt.Sprintf("entry %d: pairs not in canonical order", i))
			}
			e.Pairs = append(e.Pairs, pr)
		}
		set.Entries[p] = e
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return set, nil
}

// AppendKey appends an access key: instruction, address and value as
// uvarints, the size as one byte between address and value. The SBPM set
// and a queue outcome's repro PMCs both carry keys in this form.
func AppendKey(b []byte, k Key) []byte {
	b = binary.AppendUvarint(b, uint64(k.Ins))
	b = binary.AppendUvarint(b, k.Addr)
	b = append(b, k.Size)
	return binary.AppendUvarint(b, k.Val)
}

// MinKeyBytes is the smallest key AppendKey writes.
const MinKeyBytes = 4

// ReadKey reads a key AppendKey wrote.
func ReadKey(r *wire.Reader) Key {
	return Key{Ins: trace.ReadIns(r), Addr: r.Uvarint(), Size: r.Byte(), Val: r.Uvarint()}
}

// AppendPMC appends a PMC: its write key, its read key, then DFLeader.
func AppendPMC(b []byte, p PMC) []byte {
	return wire.AppendBool(AppendKey(AppendKey(b, p.Write), p.Read), p.DFLeader)
}

// MinPMCBytes is the smallest PMC AppendPMC writes.
const MinPMCBytes = 2*MinKeyBytes + 1

// ReadPMC reads a PMC AppendPMC wrote.
func ReadPMC(r *wire.Reader) PMC {
	return PMC{Write: ReadKey(r), Read: ReadKey(r), DFLeader: r.Bool()}
}

// EncodeSet writes s's AppendSet form to w. It stays only because bench/
// calls it.
func EncodeSet(w io.Writer, s *Set) error {
	_, err := w.Write(AppendSet(nil, s))
	return err
}

// DecodeSet parses the ParseSet form read from r. It stays only because
// bench/ calls it.
func DecodeSet(r io.Reader) (*Set, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSet, err)
	}
	return ParseSet(b)
}
