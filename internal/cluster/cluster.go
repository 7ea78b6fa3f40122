// Package cluster implements the PMC selection stage (§4.3): the eight
// clustering strategies of Table 1, the Random S-INS-PAIR ablation, and the
// uncommon-first exemplar ordering. A clustering strategy is a clustering
// key plus a filter; PMCs sharing a key land in one cluster, filtered
// clusters are discarded wholesale, and one exemplar per cluster is tested
// from the least to the most populous cluster.
package cluster

import (
	"iter"
	"math/rand"
	"slices"
	"sort"
	"strconv"

	"snowboard/internal/pmc"
)

// Strategy is one clustering strategy: a name, a key function, and a filter
// predicate over PMC features.
type Strategy struct {
	Name   string
	Key    func(p pmc.PMC) string
	Filter func(p pmc.PMC) bool
	// MultiKey, when non-nil, supersedes Key and maps a PMC to several
	// clusters (used by S-INS, which clusters on the write instruction and
	// on the read instruction independently).
	MultiKey func(p pmc.PMC) []string
}

// keyField appends "<tag><v>;" with v in the given base — the bytes
// fmt.Sprintf("<tag>%x;") or ("<tag>%d;") would print.
func keyField(b []byte, tag string, v uint64, base int) []byte {
	b = strconv.AppendUint(append(b, tag...), v, base)
	return append(b, ';')
}

// keyOf builds a clustering key from the selected features. Keys are
// report-visible and ordered as strings, so their bytes are part of the
// report format.
func keyOf(insW, insR bool, addrW, addrR bool, byteW, byteR bool, valW, valR bool) func(pmc.PMC) string {
	return func(p pmc.PMC) string {
		var buf [112]byte // all eight fields at their widest are 110 bytes
		b := buf[:0]
		if insW {
			b = keyField(b, "iw", uint64(uint32(p.Write.Ins)), 16)
		}
		if addrW {
			b = keyField(b, "aw", p.Write.Addr, 16)
		}
		if byteW {
			b = keyField(b, "bw", uint64(p.Write.Size), 10)
		}
		if valW {
			b = keyField(b, "vw", p.Write.Val, 16)
		}
		if insR {
			b = keyField(b, "ir", uint64(uint32(p.Read.Ins)), 16)
		}
		if addrR {
			b = keyField(b, "ar", p.Read.Addr, 16)
		}
		if byteR {
			b = keyField(b, "br", uint64(p.Read.Size), 10)
		}
		if valR {
			b = keyField(b, "vr", p.Read.Val, 16)
		}
		return string(b)
	}
}

// insKey is the S-INS cluster key of one side: side then the instruction
// in hex.
func insKey(side byte, ins uint32) string {
	var buf [9]byte
	return string(strconv.AppendUint(append(buf[:0], side), uint64(ins), 16))
}

func always(pmc.PMC) bool { return true }

// The strategies of Table 1.
var (
	// SFull clusters on every feature: only identical PMCs share a cluster.
	SFull = Strategy{
		Name:   "S-FULL",
		Key:    keyOf(true, true, true, true, true, true, true, true),
		Filter: always,
	}
	// SCh (Channel) ignores the read/written values.
	SCh = Strategy{
		Name:   "S-CH",
		Key:    keyOf(true, true, true, true, true, true, false, false),
		Filter: always,
	}
	// SChNull keeps only channels whose write value is all zero (object
	// nullification).
	SChNull = Strategy{
		Name:   "S-CH-NULL",
		Key:    keyOf(true, true, true, true, true, true, false, false),
		Filter: func(p pmc.PMC) bool { return p.Write.Val == 0 },
	}
	// SChUnaligned keeps channels whose write and read ranges differ.
	SChUnaligned = Strategy{
		Name: "S-CH-UNALIGNED",
		Key:  keyOf(true, true, true, true, true, true, false, false),
		Filter: func(p pmc.PMC) bool {
			return p.Read.Addr != p.Write.Addr || p.Read.Size != p.Write.Size
		},
	}
	// SChDouble keeps channels whose read is a double-fetch leader.
	SChDouble = Strategy{
		Name:   "S-CH-DOUBLE",
		Key:    keyOf(true, true, true, true, true, true, false, false),
		Filter: func(p pmc.PMC) bool { return p.DFLeader },
	}
	// SIns clusters solely on an instruction address — once for the write
	// side and once for the read side (the "strategy pair" of §4.3).
	SIns = Strategy{
		Name:   "S-INS",
		Filter: always,
		MultiKey: func(p pmc.PMC) []string {
			return []string{insKey('w', uint32(p.Write.Ins)), insKey('r', uint32(p.Read.Ins))}
		},
	}
	// SInsPair clusters on the write/read instruction pair.
	SInsPair = Strategy{
		Name:   "S-INS-PAIR",
		Key:    keyOf(true, true, false, false, false, false, false, false),
		Filter: always,
	}
	// SMem clusters on the memory ranges only.
	SMem = Strategy{
		Name:   "S-MEM",
		Key:    keyOf(false, false, true, true, true, true, false, false),
		Filter: always,
	}
)

// Strategies lists the eight Table 1 strategies in the paper's order.
var Strategies = []Strategy{SFull, SCh, SChNull, SChUnaligned, SChDouble, SIns, SInsPair, SMem}

// Cluster is one group of equivalent PMCs under a strategy.
type Cluster struct {
	Key  string
	PMCs []pmc.PMC // the member PMC keys
	// Weight is the total pair combinations across members, used as the
	// cardinality for uncommon-first ordering.
	Weight int64
}

// Clusters groups the PMC set under the strategy, dropping filtered PMCs.
func Clusters(set *pmc.Set, s Strategy) []Cluster {
	byKey := make(map[string]*Cluster)
	add := func(key string, e *pmc.Entry) {
		c := byKey[key]
		if c == nil {
			c = &Cluster{Key: key}
			byKey[key] = c
		}
		c.PMCs = append(c.PMCs, e.PMC)
		c.Weight += e.PairCount
	}
	for _, e := range set.Entries {
		if !s.Filter(e.PMC) {
			continue
		}
		if s.MultiKey != nil {
			for _, k := range s.MultiKey(e.PMC) {
				add(k, e)
			}
		} else {
			add(s.Key(e.PMC), e)
		}
	}
	out := make([]Cluster, 0, len(byKey))
	for _, c := range byKey {
		sort.Slice(c.PMCs, func(i, j int) bool { return pmc.Less(c.PMCs[i], c.PMCs[j]) })
		out = append(out, *c)
	}
	// Deterministic base order before cardinality sorting.
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Order arranges clusters for exemplar selection.
type Order uint8

// Cluster orderings.
const (
	// UncommonFirst tests the least populous cluster first (§4.3).
	UncommonFirst Order = iota
	// RandomOrder shuffles clusters (the Random S-INS-PAIR ablation).
	RandomOrder
)

// OrderClusters sorts (or shuffles) the clusters in place per the order.
func OrderClusters(cs []Cluster, o Order, rng *rand.Rand) {
	switch o {
	case UncommonFirst:
		sort.SliceStable(cs, func(i, j int) bool {
			if cs[i].Weight != cs[j].Weight {
				return cs[i].Weight < cs[j].Weight
			}
			return cs[i].Key < cs[j].Key
		})
	case RandomOrder:
		rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	}
}

// Index maps every PMC of a set, by its dense id (pmc.Set.ID), to the
// clusters it falls in under one strategy: two under S-INS (its write and
// its read instruction), one under the others, none when the strategy
// filters it out. It is built once, from the clusters stage 3 computes and
// on the first Unplanned call, so that what a batch of tests plans is a
// lookup per PMC, with no key built. Not safe for concurrent use.
type Index struct {
	set      *pmc.Set
	entries  int
	strategy string
	cs       []Cluster // what of is built from
	per      int       // clusters a PMC can fall in: 2 under S-INS, else 1
	of       []int32   // of[id*per:][:per]: positions in cs plus one, 0 where none
}

// NewIndex returns the index of cs, the clusters of set under s (as
// Clusters returns them, in any order).
func NewIndex(set *pmc.Set, s Strategy, cs []Cluster) *Index {
	ix := &Index{set: set, entries: set.Len(), strategy: s.Name, cs: cs, per: 1}
	if s.MultiKey != nil {
		ix.per = 2
	}
	return ix
}

// Indexes reports whether ix indexes set, as it is now, under s.
func (ix *Index) Indexes(set *pmc.Set, s Strategy) bool {
	return ix.set == set && ix.entries == set.Len() && ix.strategy == s.Name
}

// Unplanned returns the PMCs of the set that share no cluster with any of
// hints, in canonical order: those no test hinting a member of their
// cluster stands for (§4.3's premise that one exemplar stands for its
// cluster). A PMC the strategy filters out shares no cluster, so it is
// always unplanned; under S-INS a PMC is planned when either of its
// clusters is. When every PMC is planned it allocates no list.
func (ix *Index) Unplanned(hints iter.Seq[pmc.PMC]) []pmc.PMC {
	if ix.of == nil {
		ix.build()
	}
	tested := make([]bool, len(ix.cs))
	for h := range hints {
		if id, ok := ix.set.ID(h); ok {
			for _, c := range ix.clusters(id) {
				if c > 0 {
					tested[c-1] = true
				}
			}
		}
	}
	unplanned := func(id int) bool {
		return !slices.ContainsFunc(ix.clusters(id), func(c int32) bool { return c > 0 && tested[c-1] })
	}
	n := 0
	for id := range ix.entries {
		if unplanned(id) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]pmc.PMC, 0, n)
	for id, p := range ix.set.PMCs() {
		if unplanned(id) {
			out = append(out, p)
		}
	}
	return out
}

// clusters is the PMC's slots of the index.
func (ix *Index) clusters(id int) []int32 { return ix.of[id*ix.per : (id+1)*ix.per] }

func (ix *Index) build() {
	ix.of = make([]int32, ix.entries*ix.per)
	for ci := range ix.cs {
		for _, p := range ix.cs[ci].PMCs {
			if id, ok := ix.set.ID(p); ok {
				of := ix.clusters(id)
				of[slices.Index(of, 0)] = int32(ci + 1)
			}
		}
	}
}

// Exemplar draws one member PMC from the cluster at random (§4.4: "one PMC
// is chosen from each cluster ... one pair is chosen among them at
// random").
func Exemplar(c *Cluster, rng *rand.Rand) pmc.PMC {
	return c.PMCs[rng.Intn(len(c.PMCs))]
}
