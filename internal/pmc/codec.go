package pmc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"snowboard/internal/trace"
)

// Compact binary serialization for the two big analysis artifacts:
//
// Profile sets ("SBPS") carry the shared-memory access set of every corpus
// test plus its double-fetch leader marks — the output of the profiling
// stage that took the paper 40 machine-hours and was reused across all
// eleven generation strategies of Table 3. Accesses ride the delta/varint
// trace codec (trace.WriteBlock); DFLeader marks are delta-coded sorted
// indices.
//
// PMC sets ("SBPM") carry the identified PMC database: entries in
// canonical key order (so equal sets encode to identical bytes and content
// addresses are stable), each with its bounded pair list and uncapped pair
// count.
//
// Both decoders are hardened: structural violations yield errors wrapping
// ErrBadProfiles/ErrBadSet, never panics, and counts are sanity-capped
// before allocation.

const (
	profilesMagic   = "SBPS"
	profilesVersion = 1
	setMagic        = "SBPM"
	setVersion      = 1

	maxProfiles       = 1 << 22
	maxEntries        = 1 << 24
	maxCombinations   = int64(1) << 50
	maxDecodedTestID  = 1 << 31
	maxDecodedPairRef = 1 << 31
)

// ProfilesCodecVersion and SetCodecVersion identify the artifact encodings;
// stage digests mix them in so a format change invalidates stored artifacts
// instead of misdecoding them.
const (
	ProfilesCodecVersion = profilesVersion
	SetCodecVersion      = setVersion
)

// ErrBadProfiles reports a malformed serialized profile set.
var ErrBadProfiles = errors.New("pmc: malformed profile set encoding")

// ErrBadSet reports a malformed serialized PMC set.
var ErrBadSet = errors.New("pmc: malformed PMC set encoding")

// EncodeProfiles writes the profile set to w in the compact canonical
// format. DFLeader maps are emitted as sorted true-mark indices, so two
// semantically equal profile sets (false entries are equivalent to absent
// ones) encode to identical bytes.
func EncodeProfiles(w io.Writer, profiles []Profile) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(profilesMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(profilesVersion); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	putU := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	if err := putU(uint64(len(profiles))); err != nil {
		return err
	}
	for i := range profiles {
		p := &profiles[i]
		if err := putU(uint64(p.TestID)); err != nil {
			return err
		}
		if err := trace.WriteBlock(bw, &p.Accesses); err != nil {
			return err
		}
		marks := make([]int, 0, len(p.DFLeader))
		for idx, on := range p.DFLeader {
			if on {
				marks = append(marks, idx)
			}
		}
		sort.Ints(marks)
		if err := putU(uint64(len(marks))); err != nil {
			return err
		}
		prev := 0
		for _, m := range marks {
			if err := putU(uint64(m - prev)); err != nil {
				return err
			}
			prev = m
		}
	}
	return bw.Flush()
}

// DecodeProfiles parses a compact profile set. DFLeader marks must index
// into the profile's accesses and be strictly increasing.
func DecodeProfiles(r io.Reader) ([]Profile, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProfiles, err)
	}
	if string(magic[:]) != profilesMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadProfiles, magic)
	}
	ver, err := br.ReadByte()
	if err != nil || ver != profilesVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadProfiles, ver)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil || count > maxProfiles {
		return nil, fmt.Errorf("%w: profile count", ErrBadProfiles)
	}
	// Clamp the preallocation: the count is untrusted until profiles arrive.
	out := make([]Profile, 0, 1024)
	for i := uint64(0); i < count; i++ {
		testID, err := binary.ReadUvarint(br)
		if err != nil || testID > maxDecodedTestID {
			return nil, fmt.Errorf("%w: profile %d: test id", ErrBadProfiles, i)
		}
		accs, err := trace.ReadBlock(br)
		if err != nil {
			return nil, fmt.Errorf("%w: profile %d: %v", ErrBadProfiles, i, err)
		}
		nmarks, err := binary.ReadUvarint(br)
		if err != nil || nmarks > uint64(accs.Len()) {
			return nil, fmt.Errorf("%w: profile %d: mark count", ErrBadProfiles, i)
		}
		df := make(map[int]bool, nmarks)
		idx, first := 0, true
		for m := uint64(0); m < nmarks; m++ {
			d, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("%w: profile %d: mark %d", ErrBadProfiles, i, m)
			}
			if !first && d == 0 {
				return nil, fmt.Errorf("%w: profile %d: marks not strictly increasing", ErrBadProfiles, i)
			}
			idx += int(d)
			first = false
			if idx < 0 || idx >= accs.Len() {
				return nil, fmt.Errorf("%w: profile %d: mark index %d out of range", ErrBadProfiles, i, idx)
			}
			df[idx] = true
		}
		out = append(out, Profile{TestID: int(testID), Accesses: accs, DFLeader: df})
	}
	return out, nil
}

// pmcLess orders PMCs canonically (keyLess is shared with triple.go):
// write key, read key, then DFLeader.
func pmcLess(a, b PMC) bool {
	if a.Write != b.Write {
		return keyLess(a.Write, b.Write)
	}
	if a.Read != b.Read {
		return keyLess(a.Read, b.Read)
	}
	return !a.DFLeader && b.DFLeader
}

// sortedPMCs returns the set's PMCs in canonical order.
func (s *Set) sortedPMCs() []PMC {
	keys := make([]PMC, 0, len(s.Entries))
	for k := range s.Entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return pmcLess(keys[i], keys[j]) })
	return keys
}

// EncodeSet writes the PMC database to w in the compact canonical format:
// entries sorted by (write key, read key, DFLeader), so equal sets — no
// matter the identification sharding or merge order that built them —
// encode to identical bytes.
func EncodeSet(w io.Writer, s *Set) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(setMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(setVersion); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	putU := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	putKey := func(k Key) error {
		if err := putU(uint64(k.Ins)); err != nil {
			return err
		}
		if err := putU(k.Addr); err != nil {
			return err
		}
		if err := bw.WriteByte(k.Size); err != nil {
			return err
		}
		return putU(k.Val)
	}
	if err := putU(uint64(s.TotalCombinations)); err != nil {
		return err
	}
	keys := s.sortedPMCs()
	if err := putU(uint64(len(keys))); err != nil {
		return err
	}
	for _, k := range keys {
		e := s.Entries[k]
		if err := putKey(k.Write); err != nil {
			return err
		}
		if err := putKey(k.Read); err != nil {
			return err
		}
		var df byte
		if k.DFLeader {
			df = 1
		}
		if err := bw.WriteByte(df); err != nil {
			return err
		}
		if err := putU(uint64(e.PairCount)); err != nil {
			return err
		}
		if err := putU(uint64(len(e.Pairs))); err != nil {
			return err
		}
		for _, pr := range e.Pairs {
			if err := putU(uint64(pr.Writer)); err != nil {
				return err
			}
			if err := putU(uint64(pr.Reader)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// DecodeSet parses a compact PMC database. Pair lists must respect the
// MaxPairsPerPMC bound and canonical pair order; pair counts and totals
// must be plausible.
func DecodeSet(r io.Reader) (*Set, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSet, err)
	}
	if string(magic[:]) != setMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadSet, magic)
	}
	ver, err := br.ReadByte()
	if err != nil || ver != setVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadSet, ver)
	}
	getU := func(what string) (uint64, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("%w: %s: %v", ErrBadSet, what, err)
		}
		return v, nil
	}
	getKey := func(what string) (Key, error) {
		var k Key
		ins, err := getU(what + " ins")
		if err != nil {
			return k, err
		}
		addr, err := getU(what + " addr")
		if err != nil {
			return k, err
		}
		size, err := br.ReadByte()
		if err != nil {
			return k, fmt.Errorf("%w: %s size: %v", ErrBadSet, what, err)
		}
		val, err := getU(what + " val")
		if err != nil {
			return k, err
		}
		if size == 0 || size > 8 {
			return k, fmt.Errorf("%w: %s size %d", ErrBadSet, what, size)
		}
		return Key{Ins: trace.Ins(ins), Addr: addr, Size: size, Val: val}, nil
	}
	total, err := getU("total combinations")
	if err != nil || int64(total) < 0 || int64(total) > maxCombinations {
		return nil, fmt.Errorf("%w: total combinations", ErrBadSet)
	}
	count, err := getU("entry count")
	if err != nil || count > maxEntries {
		return nil, fmt.Errorf("%w: entry count", ErrBadSet)
	}
	set := NewSet()
	set.TotalCombinations = int64(total)
	for i := uint64(0); i < count; i++ {
		wk, err := getKey("write key")
		if err != nil {
			return nil, err
		}
		rk, err := getKey("read key")
		if err != nil {
			return nil, err
		}
		df, err := br.ReadByte()
		if err != nil || df > 1 {
			return nil, fmt.Errorf("%w: entry %d: df flag", ErrBadSet, i)
		}
		pairCount, err := getU("pair count")
		if err != nil || int64(pairCount) < 0 || int64(pairCount) > maxCombinations {
			return nil, fmt.Errorf("%w: entry %d: pair count", ErrBadSet, i)
		}
		npairs, err := getU("pair list length")
		if err != nil || npairs > MaxPairsPerPMC || uint64(pairCount) < npairs {
			return nil, fmt.Errorf("%w: entry %d: pair list length", ErrBadSet, i)
		}
		p := PMC{Write: wk, Read: rk, DFLeader: df == 1}
		if _, dup := set.Entries[p]; dup {
			return nil, fmt.Errorf("%w: entry %d: duplicate PMC", ErrBadSet, i)
		}
		e := &Entry{PMC: p, PairCount: int64(pairCount)}
		for j := uint64(0); j < npairs; j++ {
			w, err := getU("pair writer")
			if err != nil || w > maxDecodedPairRef {
				return nil, fmt.Errorf("%w: entry %d pair %d: writer", ErrBadSet, i, j)
			}
			rd, err := getU("pair reader")
			if err != nil || rd > maxDecodedPairRef {
				return nil, fmt.Errorf("%w: entry %d pair %d: reader", ErrBadSet, i, j)
			}
			pr := Pair{Writer: int(w), Reader: int(rd)}
			// Non-strict: pair lists keep multiplicity, so equal
			// neighbours are legal; only descending order is malformed.
			if j > 0 && pairLess(pr, e.Pairs[j-1]) {
				return nil, fmt.Errorf("%w: entry %d: pairs not in canonical order", ErrBadSet, i)
			}
			e.Pairs = append(e.Pairs, pr)
		}
		set.Entries[p] = e
	}
	return set, nil
}
