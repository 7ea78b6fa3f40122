// Package difftest is the differential equivalence harness for PMC
// identification: it holds the per-access reference (Reference), generates
// seeded synthetic profile corpora, partitions them into batches, and
// renders PMC sets canonically so tests can assert — structurally, field by
// field — that the keyed engine (pmc.Incremental, and pmc.Identify over
// it) fed any partition of a corpus, in any batch order, produces exactly
// the set the reference returns.
//
// The package is a library, not a test file, so the tests here and the
// external tests and fuzz targets of internal/pmc share one oracle, one
// generator and one comparison; a divergence found by any of them
// reproduces in the others from the same seed or byte string.
package difftest

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"

	"snowboard/internal/pmc"
	"snowboard/internal/trace"
)

// Reference is Algorithm 1 as written, one access at a time: every read of
// every profile against every write of every profile, through the overlap,
// self-pair and projected-value filters, into Set.Add. It is quadratic in
// the accesses and shares no code with the keyed engine, which is the
// point: it is the oracle the engine is compared to.
func Reference(profiles []pmc.Profile, opt pmc.Options) *pmc.Set {
	set := pmc.NewSet()
	for ri := range profiles {
		rp := &profiles[ri]
		for ai := 0; ai < rp.Accesses.Len(); ai++ {
			if rp.Accesses.KindAt(ai) != trace.Read {
				continue
			}
			r := rp.Accesses.At(ai)
			for wi := range profiles {
				wp := &profiles[wi]
				if !opt.AllowSelfPairs && wp.TestID == rp.TestID {
					continue
				}
				for bi := 0; bi < wp.Accesses.Len(); bi++ {
					if !wp.Accesses.IsWriteAt(bi) {
						continue
					}
					w := wp.Accesses.At(bi)
					if !r.Overlaps(&w) {
						continue
					}
					lo, hi := r.OverlapRange(&w)
					if !opt.SkipValueFilter && r.ProjectVal(lo, hi) == w.ProjectVal(lo, hi) {
						continue // the write would not change what the read sees
					}
					set.Add(pmc.PMC{
						Write:    pmc.Key{Ins: w.Ins, Addr: w.Addr, Size: w.Size, Val: w.Val},
						Read:     pmc.Key{Ins: r.Ins, Addr: r.Addr, Size: r.Size, Val: r.Val},
						DFLeader: rp.DFLeader[ai],
					}, pmc.Pair{Writer: wp.TestID, Reader: rp.TestID})
				}
			}
		}
	}
	return set
}

// insPool is the narrow instruction pool the generator draws from: few
// enough distinct instructions that many (writer, reader) pairs collide on
// the same PMC keys and push the bounded pair lists past MaxPairsPerPMC —
// the regime where merge-order bugs would show.
var insPool = []trace.Ins{
	trace.DefIns("difftest:w1"),
	trace.DefIns("difftest:w2"),
	trace.DefIns("difftest:r1"),
	trace.DefIns("difftest:r2"),
}

// GenCorpus produces n synthetic profiles from a narrow address/value pool,
// with double-fetch leader marks sprinkled on reads. Beyond colliding keys
// it emits what a per-key aggregate could get wrong (the Case constants): an access
// repeated inside its profile, and a profile that reuses an earlier
// profile's TestID, so one test's observations arrive in several batches.
// Everything derives from rng, so a corpus regenerates exactly from its
// seed.
func GenCorpus(rng *rand.Rand, n int) []pmc.Profile {
	profiles := make([]pmc.Profile, n)
	for i := range profiles {
		var accs trace.Block
		df := make(map[int]bool)
		m := 4 + rng.Intn(12)
		for j := 0; j < m; j++ {
			if j > 0 && rng.Intn(4) == 0 {
				a := accs.At(j - 1)
				accs.Record(a.Thread, a.Ins, a.Kind, a.Addr, a.Size, a.Val, false, false, false, false, 0)
				df[j] = df[j-1]
				continue
			}
			kind := trace.Read
			if rng.Intn(2) == 0 {
				kind = trace.Write
			}
			acc := trace.Access{
				Ins:  insPool[rng.Intn(len(insPool))],
				Kind: kind,
				Addr: 0x100 + uint64(rng.Intn(12)),
				Size: uint8(1 + rng.Intn(8)),
				Val:  uint64(rng.Intn(4)),
			}
			if rng.Intn(2) == 0 {
				// Half the accesses hit one hot word, so its keys collect
				// more pairs than a bounded list holds.
				acc.Ins, acc.Addr, acc.Size, acc.Val = insPool[2*(1-int(kind))], 0x104, 4, uint64(rng.Intn(2))
			}
			accs.Record(0, acc.Ins, kind, acc.Addr, acc.Size, acc.Val, false, false, false, false, 0)
			if kind == trace.Read && rng.Intn(4) == 0 {
				df[j] = true
			}
		}
		id := i
		if i > 0 && rng.Intn(6) == 0 {
			id = profiles[rng.Intn(i)].TestID
		}
		profiles[i] = pmc.Profile{TestID: id, Accesses: accs, DFLeader: df}
	}
	return profiles
}

// The situations a per-key aggregate must get right. The generators exist
// to emit them, and the tests that use the generators assert that they
// did: an equivalence proved over corpora without them would prove little.
const (
	CaseMultiplicity  = "one profile performs the same access more than once"
	CaseSharedTestID  = "two profiles carry one TestID (two batches, when batches are single profiles)"
	CasePastPairCap   = "an entry counts more pairs than MaxPairsPerPMC lists"
	CaseDiagonal      = "a combination whose writer is its reader, which AllowSelfPairs=false drops"
	CaseValueFiltered = "an overlapping combination the value filter drops and SkipValueFilter keeps"
	CaseBothDF        = "one (write key, read key) identified with and without the df mark"
)

var allCases = []string{CaseMultiplicity, CaseSharedTestID, CasePastPairCap, CaseDiagonal, CaseValueFiltered, CaseBothDF}

// Cases is the set of those situations some corpora contain.
type Cases map[string]bool

// Add finds the cases in one more corpus.
func (c Cases) Add(profiles []pmc.Profile) {
	type access struct {
		kind trace.Kind
		key  pmc.Key
		df   bool
	}
	ids := make(map[int]bool)
	for pi := range profiles {
		p := &profiles[pi]
		if ids[p.TestID] {
			c[CaseSharedTestID] = true
		}
		ids[p.TestID] = true
		seen := make(map[access]bool)
		for ai := 0; ai < p.Accesses.Len(); ai++ {
			a := p.Accesses.At(ai)
			k := access{a.Kind, pmc.Key{Ins: a.Ins, Addr: a.Addr, Size: a.Size, Val: a.Val}, p.DFLeader[ai]}
			if seen[k] {
				c[CaseMultiplicity] = true
			}
			seen[k] = true
		}
	}
	all := Reference(profiles, pmc.Options{AllowSelfPairs: true})
	for key, e := range all.Entries {
		if e.PairCount > pmc.MaxPairsPerPMC {
			c[CasePastPairCap] = true
		}
		key.DFLeader = !key.DFLeader
		if all.Entries[key] != nil {
			c[CaseBothDF] = true
		}
	}
	if Reference(profiles, pmc.Options{}).TotalCombinations < all.TotalCombinations {
		c[CaseDiagonal] = true
	}
	if Reference(profiles, pmc.Options{AllowSelfPairs: true, SkipValueFilter: true}).TotalCombinations > all.TotalCombinations {
		c[CaseValueFiltered] = true
	}
}

// Missing lists the cases not seen, empty when all were.
func (c Cases) Missing() []string {
	var out []string
	for _, name := range allCases {
		if !c[name] {
			out = append(out, name)
		}
	}
	return out
}

// Partition splits profiles into k contiguous batches whose concatenation
// is the input (k is clamped to [1, len(profiles)]; empty input yields
// nil). Batch sizes differ by at most one, so k=len(profiles) is the
// one-profile-per-batch extreme and k=1 the single-batch one.
func Partition(profiles []pmc.Profile, k int) [][]pmc.Profile {
	if len(profiles) == 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > len(profiles) {
		k = len(profiles)
	}
	out := make([][]pmc.Profile, 0, k)
	start := 0
	for b := 0; b < k; b++ {
		end := start + (len(profiles)-start)/(k-b)
		out = append(out, profiles[start:end])
		start = end
	}
	return out
}

// render flattens a Set into canonical lines: one per entry — key, DF flag,
// full bounded pair list, uncapped pair count — plus a trailer with the
// aggregate counts. Two sets render identically iff they are deep-equal in
// every field the equivalence contract covers.
func render(s *pmc.Set) []string {
	out := make([]string, 0, len(s.Entries)+1)
	for key, e := range s.Entries {
		out = append(out, fmt.Sprintf("%v|df=%v|pairs=%v|count=%d", key, e.PMC.DFLeader, e.Pairs, e.PairCount))
	}
	sort.Strings(out)
	out = append(out, fmt.Sprintf("entries=%d|total=%d", s.Len(), s.TotalCombinations))
	return out
}

// Diff compares two PMC sets — entries, DFLeader flags, bounded pair lists,
// pair counts, and TotalCombinations — and returns "" when they are
// deep-equal, or a human-readable description of the first divergences.
func Diff(want, got *pmc.Set) string {
	if want.TotalCombinations == got.TotalCombinations && reflect.DeepEqual(want.Entries, got.Entries) {
		return ""
	}
	w, g := render(want), render(got)
	wset := make(map[string]bool, len(w))
	for _, l := range w {
		wset[l] = true
	}
	gset := make(map[string]bool, len(g))
	for _, l := range g {
		gset[l] = true
	}
	var b strings.Builder
	miss, extra := 0, 0
	for _, l := range w {
		if !gset[l] {
			if miss < 5 {
				fmt.Fprintf(&b, "missing: %s\n", l)
			}
			miss++
		}
	}
	for _, l := range g {
		if !wset[l] {
			if extra < 5 {
				fmt.Fprintf(&b, "extra:   %s\n", l)
			}
			extra++
		}
	}
	if miss+extra == 0 {
		return "sets render equal but are not deep-equal (nil against empty pair list?)"
	}
	fmt.Fprintf(&b, "%d missing, %d extra lines", miss, extra)
	return b.String()
}

// FromBytes decodes an arbitrary byte string into profiles — the fuzz-side
// twin of GenCorpus. Eight bytes describe one access (kind+DF mark,
// instruction, address offset, size, two value bytes, profile slot, TestID
// alias), clamped into ranges Identify accepts, so every input is a valid
// corpus and the fuzzer explores identification behavior, not decoder
// rejects. A non-zero alias byte b gives the access's profile the TestID
// (b-1) mod the profile count, which is how two profiles come to share one.
func FromBytes(data []byte) []pmc.Profile {
	const perAccess = 8
	profiles := make([]pmc.Profile, 1+len(data)/(perAccess*4))
	for i := range profiles {
		profiles[i].TestID = i
		profiles[i].DFLeader = make(map[int]bool)
	}
	for i := 0; i+perAccess <= len(data); i += perAccess {
		b := data[i : i+perAccess]
		kind := trace.Read
		if b[0]&1 == 0 {
			kind = trace.Write
		}
		acc := trace.Access{
			Ins:  trace.Ins(uint32(b[1])),
			Kind: kind,
			Addr: 0x1000 + uint64(b[2]),
			Size: 1 + b[3]%8,
			Val:  uint64(b[4]) | uint64(b[5])<<8,
		}
		slot := int(b[6]) % len(profiles)
		p := &profiles[slot]
		p.Accesses.Record(0, acc.Ins, kind, acc.Addr, acc.Size, acc.Val, false, false, false, false, 0)
		if kind == trace.Read && b[0]&2 != 0 {
			p.DFLeader[p.Accesses.Len()-1] = true
		}
		if b[7] != 0 {
			p.TestID = int(b[7]-1) % len(profiles)
		}
	}
	return profiles
}

// CaseSeed is a FromBytes input whose corpus contains every case above;
// the fuzz targets start from it.
func CaseSeed() []byte {
	write := []byte{0, 1, 0, 7, 1, 0, 0, 0} // slot 0 writes 1 over [0x1000,0x1008)
	read := []byte{1, 2, 0, 7, 2, 0, 1, 0}  // slot 1 reads 2 there
	var seed []byte
	for i := 0; i < 5; i++ {
		seed = append(seed, write...)
	}
	for i := 0; i < 4; i++ { // 5×4 combinations: past the pair cap, by multiplicity alone
		seed = append(seed, read...)
	}
	seed = append(seed, 3, 2, 0, 7, 2, 0, 1, 0) // the same read as a df leader
	seed = append(seed, 1, 2, 0, 7, 2, 0, 0, 0) // slot 0 reads its own write: the diagonal
	seed = append(seed, 1, 3, 0, 7, 1, 0, 2, 0) // slot 2 reads the value written: filtered
	seed = append(seed, 1, 2, 0, 7, 2, 0, 3, 2) // slot 3 reads as TestID 1, like slot 1
	return seed
}
