// Package cluster implements the PMC selection stage (§4.3): the eight
// clustering strategies of Table 1, the Random S-INS-PAIR ablation, and the
// uncommon-first exemplar ordering. A clustering strategy is a clustering
// key plus a filter; PMCs sharing a key land in one cluster, filtered
// clusters are discarded wholesale, and one exemplar per cluster is tested
// from the least to the most populous cluster.
package cluster

import (
	"math/rand"
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
		sort.Slice(c.PMCs, func(i, j int) bool { return pmcLess(c.PMCs[i], c.PMCs[j]) })
		out = append(out, *c)
	}
	// Deterministic base order before cardinality sorting.
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func pmcLess(a, b pmc.PMC) bool {
	if a.Write != b.Write {
		return keyLess(a.Write, b.Write)
	}
	if a.Read != b.Read {
		return keyLess(a.Read, b.Read)
	}
	// DFLeader completes the order: entries are distinct map keys, so two
	// PMCs agreeing on both access keys differ in it. Without this the
	// comparator is not total and the unstable sort leaks map iteration
	// order into the member list — and through Exemplar's rng.Intn draw,
	// into which PMC each cluster tests.
	return !a.DFLeader && b.DFLeader
}

func keyLess(a, b pmc.Key) bool {
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

// Exemplar draws one member PMC from the cluster at random (§4.4: "one PMC
// is chosen from each cluster ... one pair is chosen among them at
// random").
func Exemplar(c *Cluster, rng *rand.Rand) pmc.PMC {
	return c.PMCs[rng.Intn(len(c.PMCs))]
}
