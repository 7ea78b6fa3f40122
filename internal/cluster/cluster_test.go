package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"snowboard/internal/pmc"
	"snowboard/internal/trace"
)

var (
	insA = trace.DefIns("cluster_test:wA")
	insB = trace.DefIns("cluster_test:wB")
	insC = trace.DefIns("cluster_test:rC")
	insD = trace.DefIns("cluster_test:rD")
)

func mk(wi trace.Ins, wa uint64, ws uint8, wv uint64, ri trace.Ins, ra uint64, rs uint8, rv uint64, df bool) pmc.PMC {
	return pmc.PMC{
		Write:    pmc.Key{Ins: wi, Addr: wa, Size: ws, Val: wv},
		Read:     pmc.Key{Ins: ri, Addr: ra, Size: rs, Val: rv},
		DFLeader: df,
	}
}

func setOf(pmcs ...pmc.PMC) *pmc.Set {
	s := pmc.NewSet()
	for i, p := range pmcs {
		s.Add(p, pmc.Pair{Writer: i, Reader: i + 1})
	}
	return s
}

func TestSFullSeparatesByValue(t *testing.T) {
	s := setOf(
		mk(insA, 0x100, 8, 1, insC, 0x100, 8, 0, false),
		mk(insA, 0x100, 8, 2, insC, 0x100, 8, 0, false), // differs only in write value
	)
	if cs := Clusters(s, SFull); len(cs) != 2 {
		t.Fatalf("S-FULL clusters: %d, want 2", len(cs))
	}
	if cs := Clusters(s, SCh); len(cs) != 1 {
		t.Fatalf("S-CH clusters: %d, want 1 (values ignored)", len(cs))
	}
}

func TestSChNullFilter(t *testing.T) {
	s := setOf(
		mk(insA, 0x100, 8, 0, insC, 0x100, 8, 5, false), // nullification
		mk(insA, 0x100, 8, 7, insC, 0x100, 8, 5, false), // non-zero write
	)
	cs := Clusters(s, SChNull)
	if len(cs) != 1 {
		t.Fatalf("S-CH-NULL clusters: %d, want 1", len(cs))
	}
	if cs[0].PMCs[0].Write.Val != 0 {
		t.Fatal("non-null PMC survived the filter")
	}
}

func TestSChUnalignedFilter(t *testing.T) {
	s := setOf(
		mk(insA, 0x100, 8, 1, insC, 0x100, 8, 0, false), // aligned
		mk(insA, 0x100, 8, 1, insC, 0x104, 2, 0, false), // range mismatch
		mk(insA, 0x100, 8, 1, insC, 0x100, 4, 0, false), // length mismatch
	)
	cs := Clusters(s, SChUnaligned)
	total := 0
	for _, c := range cs {
		total += len(c.PMCs)
	}
	if total != 2 {
		t.Fatalf("unaligned kept %d PMCs, want 2", total)
	}
}

func TestSChDoubleFilter(t *testing.T) {
	s := setOf(
		mk(insA, 0x100, 8, 1, insC, 0x100, 8, 0, true),
		mk(insA, 0x100, 8, 1, insD, 0x100, 8, 0, false),
	)
	cs := Clusters(s, SChDouble)
	if len(cs) != 1 || !cs[0].PMCs[0].DFLeader {
		t.Fatalf("S-CH-DOUBLE kept %v", cs)
	}
}

func TestSInsMultiKey(t *testing.T) {
	// One PMC lands in two clusters: its write-instruction cluster and its
	// read-instruction cluster.
	s := setOf(mk(insA, 0x100, 8, 1, insC, 0x100, 8, 0, false))
	cs := Clusters(s, SIns)
	if len(cs) != 2 {
		t.Fatalf("S-INS clusters: %d, want 2", len(cs))
	}
	// Two PMCs sharing the write instruction share that cluster.
	s = setOf(
		mk(insA, 0x100, 8, 1, insC, 0x100, 8, 0, false),
		mk(insA, 0x200, 8, 1, insD, 0x200, 8, 0, false),
	)
	cs = Clusters(s, SIns)
	if len(cs) != 3 { // {W:insA}, {R:insC}, {R:insD}
		t.Fatalf("S-INS clusters: %d, want 3", len(cs))
	}
}

func TestSInsPairKey(t *testing.T) {
	s := setOf(
		mk(insA, 0x100, 8, 1, insC, 0x100, 8, 0, false),
		mk(insA, 0x180, 4, 9, insC, 0x180, 4, 3, false), // same ins pair, all else differs
		mk(insB, 0x100, 8, 1, insC, 0x100, 8, 0, false),
	)
	if cs := Clusters(s, SInsPair); len(cs) != 2 {
		t.Fatalf("S-INS-PAIR clusters: %d, want 2", len(cs))
	}
}

func TestSMemKey(t *testing.T) {
	s := setOf(
		mk(insA, 0x100, 8, 1, insC, 0x100, 8, 0, false),
		mk(insB, 0x100, 8, 9, insD, 0x100, 8, 3, false), // same ranges, different ins
		mk(insA, 0x200, 8, 1, insC, 0x200, 8, 0, false),
	)
	if cs := Clusters(s, SMem); len(cs) != 2 {
		t.Fatalf("S-MEM clusters: %d, want 2", len(cs))
	}
}

// TestPartitionProperty: under a single-key strategy with a true filter,
// every PMC appears in exactly one cluster.
func TestPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := pmc.NewSet()
	n := 200
	for i := 0; i < n; i++ {
		p := mk(
			[]trace.Ins{insA, insB}[rng.Intn(2)], 0x100+uint64(rng.Intn(4))*8, 8, uint64(rng.Intn(3)),
			[]trace.Ins{insC, insD}[rng.Intn(2)], 0x100+uint64(rng.Intn(4))*8, 8, uint64(100+rng.Intn(3)),
			false,
		)
		s.Add(p, pmc.Pair{Writer: i, Reader: i})
	}
	for _, strat := range []Strategy{SFull, SCh, SInsPair, SMem} {
		cs := Clusters(s, strat)
		total := 0
		for _, c := range cs {
			total += len(c.PMCs)
			if c.Weight <= 0 {
				t.Fatalf("%s: non-positive weight", strat.Name)
			}
		}
		if total != s.Len() {
			t.Fatalf("%s: clusters cover %d PMCs, set has %d", strat.Name, total, s.Len())
		}
	}
}

func TestOrderUncommonFirst(t *testing.T) {
	s := pmc.NewSet()
	// Cluster A (insA pair): 5 combinations; cluster B (insB pair): 1.
	for i := 0; i < 5; i++ {
		s.Add(mk(insA, 0x100, 8, 1, insC, 0x100, 8, 0, false), pmc.Pair{Writer: i, Reader: i})
	}
	s.Add(mk(insB, 0x200, 8, 1, insD, 0x200, 8, 0, false), pmc.Pair{Writer: 9, Reader: 9})
	cs := Clusters(s, SInsPair)
	OrderClusters(cs, UncommonFirst, rand.New(rand.NewSource(1)))
	if cs[0].Weight != 1 || cs[1].Weight != 5 {
		t.Fatalf("order wrong: weights %d, %d", cs[0].Weight, cs[1].Weight)
	}
}

func TestOrderRandomDeterministic(t *testing.T) {
	build := func() []Cluster {
		s := pmc.NewSet()
		for i := 0; i < 20; i++ {
			s.Add(mk(insA, uint64(0x100+8*i), 8, 1, insC, uint64(0x100+8*i), 8, 0, false), pmc.Pair{})
		}
		cs := Clusters(s, SFull)
		OrderClusters(cs, RandomOrder, rand.New(rand.NewSource(42)))
		return cs
	}
	a, b := build(), build()
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Fatalf("random order not seed-deterministic at %d", i)
		}
	}
}

func TestExemplarIsMember(t *testing.T) {
	s := setOf(
		mk(insA, 0x100, 8, 1, insC, 0x100, 8, 0, false),
		mk(insA, 0x100, 8, 2, insC, 0x100, 8, 0, false),
	)
	cs := Clusters(s, SCh)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		ex := Exemplar(&cs[0], rng)
		found := false
		for _, p := range cs[0].PMCs {
			if p == ex {
				found = true
			}
		}
		if !found {
			t.Fatalf("exemplar %v not a member", ex)
		}
	}
}

func TestTable1StrategyCount(t *testing.T) {
	if len(Strategies) != 8 {
		t.Fatalf("Table 1 defines 8 strategies, have %d", len(Strategies))
	}
}

// TestOrderClustersTieBreak pins the UncommonFirst tie-break: equal-weight
// clusters sort by key, so the order is independent of the (map-random)
// order Clusters happened to emit them in.
func TestOrderClustersTieBreak(t *testing.T) {
	mkC := func(key string, w int64) Cluster { return Cluster{Key: key, Weight: w} }
	cs := []Cluster{mkC("zz", 2), mkC("aa", 2), mkC("mm", 1), mkC("bb", 2)}
	OrderClusters(cs, UncommonFirst, nil)
	wantKeys := []string{"mm", "aa", "bb", "zz"}
	for i, k := range wantKeys {
		if cs[i].Key != k {
			t.Fatalf("position %d: got %q want %q (full: %+v)", i, cs[i].Key, k, cs)
		}
	}
	// Idempotent: re-sorting an already-ordered slice changes nothing.
	before := append([]Cluster(nil), cs...)
	OrderClusters(cs, UncommonFirst, nil)
	for i := range cs {
		if cs[i].Key != before[i].Key {
			t.Fatal("UncommonFirst is not stable on a sorted input")
		}
	}
}

// TestPMCLessTotalOrder pins the determinism fix: pmc.Less must order two
// PMCs that agree on both access keys but differ in DFLeader. Without that
// the comparator is not total and sort.Slice (unstable) leaks map iteration
// order into cluster member lists — and through Exemplar's rng draw, into
// which PMC gets tested.
func TestPMCLessTotalOrder(t *testing.T) {
	plain := mk(insA, 0x100, 8, 1, insC, 0x100, 8, 0, false)
	leader := mk(insA, 0x100, 8, 1, insC, 0x100, 8, 0, true)
	if !pmc.Less(plain, leader) {
		t.Fatal("non-leader must order before leader")
	}
	if pmc.Less(leader, plain) {
		t.Fatal("order must be antisymmetric")
	}
	if pmc.Less(plain, plain) || pmc.Less(leader, leader) {
		t.Fatal("order must be irreflexive")
	}
}

// TestClustersMemberOrderDeterministic repeatedly clusters the same set —
// whose entries differ only in DFLeader — and checks the member order never
// varies with map iteration order.
func TestClustersMemberOrderDeterministic(t *testing.T) {
	s := setOf(
		mk(insA, 0x100, 8, 1, insC, 0x100, 8, 0, true),
		mk(insA, 0x100, 8, 1, insC, 0x100, 8, 0, false),
		mk(insA, 0x100, 8, 2, insC, 0x100, 8, 0, false),
	)
	var want []pmc.PMC
	for i := 0; i < 50; i++ {
		cs := Clusters(s, SCh)
		if len(cs) != 1 {
			t.Fatalf("clusters: %d, want 1", len(cs))
		}
		if want == nil {
			want = append([]pmc.PMC(nil), cs[0].PMCs...)
			continue
		}
		for j := range want {
			if cs[0].PMCs[j] != want[j] {
				t.Fatalf("iteration %d: member %d is %+v, want %+v", i, j, cs[0].PMCs[j], want[j])
			}
		}
	}
}

// sprintfKeyOf is keyOf as it was written with fmt, kept as the oracle of
// TestKeysEqualSprintf.
func sprintfKeyOf(insW, insR bool, addrW, addrR bool, byteW, byteR bool, valW, valR bool) func(pmc.PMC) []string {
	return func(p pmc.PMC) []string {
		s := ""
		if insW {
			s += fmt.Sprintf("iw%x;", uint32(p.Write.Ins))
		}
		if addrW {
			s += fmt.Sprintf("aw%x;", p.Write.Addr)
		}
		if byteW {
			s += fmt.Sprintf("bw%d;", p.Write.Size)
		}
		if valW {
			s += fmt.Sprintf("vw%x;", p.Write.Val)
		}
		if insR {
			s += fmt.Sprintf("ir%x;", uint32(p.Read.Ins))
		}
		if addrR {
			s += fmt.Sprintf("ar%x;", p.Read.Addr)
		}
		if byteR {
			s += fmt.Sprintf("br%d;", p.Read.Size)
		}
		if valR {
			s += fmt.Sprintf("vr%x;", p.Read.Val)
		}
		return []string{s}
	}
}

// sprintfKeys maps each Table 1 strategy to its fmt-built keys.
var sprintfKeys = map[string]func(pmc.PMC) []string{
	"S-FULL":         sprintfKeyOf(true, true, true, true, true, true, true, true),
	"S-CH":           sprintfKeyOf(true, true, true, true, true, true, false, false),
	"S-CH-NULL":      sprintfKeyOf(true, true, true, true, true, true, false, false),
	"S-CH-UNALIGNED": sprintfKeyOf(true, true, true, true, true, true, false, false),
	"S-CH-DOUBLE":    sprintfKeyOf(true, true, true, true, true, true, false, false),
	"S-INS-PAIR":     sprintfKeyOf(true, true, false, false, false, false, false, false),
	"S-MEM":          sprintfKeyOf(false, false, true, true, true, true, false, false),
	"S-INS": func(p pmc.PMC) []string {
		return []string{
			fmt.Sprintf("w%x", uint32(p.Write.Ins)),
			fmt.Sprintf("r%x", uint32(p.Read.Ins)),
		}
	},
}

// TestKeysEqualSprintf pins the key bytes: they are report-visible and
// order the clusters, so the strconv form must print what fmt printed.
func TestKeysEqualSprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	edge := []uint64{0, 1, 0xF, 0x10, 1<<32 - 1, 1 << 32, ^uint64(0)}
	word := func() uint64 {
		if rng.Intn(3) == 0 {
			return edge[rng.Intn(len(edge))]
		}
		return rng.Uint64() >> uint(rng.Intn(64))
	}
	key := func() pmc.Key {
		return pmc.Key{Ins: trace.Ins(word()), Addr: word(), Size: uint8(word()), Val: word()}
	}
	for i := 0; i < 2000; i++ {
		p := pmc.PMC{Write: key(), Read: key(), DFLeader: rng.Intn(2) == 0}
		for _, s := range Strategies {
			var got []string
			if s.MultiKey != nil {
				got = s.MultiKey(p)
			} else {
				got = []string{s.Key(p)}
			}
			if want := sprintfKeys[s.Name](p); !slices.Equal(got, want) {
				t.Fatalf("%s key of %+v: got %q, want %q", s.Name, p, got, want)
			}
		}
	}
}
