package pmc_test

import (
	"testing"

	"snowboard/internal/pmc"
	"snowboard/internal/pmc/difftest"
	"snowboard/internal/trace"
)

var (
	insW1 = trace.DefIns("pmc_test:write1")
	insW2 = trace.DefIns("pmc_test:write2")
	insR1 = trace.DefIns("pmc_test:read1")
	insR2 = trace.DefIns("pmc_test:read2")
)

// wAcc and rAcc return a one-access profile: a write or a read.
func wAcc(ins trace.Ins, addr uint64, size uint8, val uint64) trace.Block {
	var b trace.Block
	b.Record(ins, addr, val, trace.Meta(size)|trace.MetaWrite)
	return b
}

func rAcc(ins trace.Ins, addr uint64, size uint8, val uint64) trace.Block {
	var b trace.Block
	b.Record(ins, addr, val, trace.Meta(size))
	return b
}

// identify runs the keyed engine and holds it to the per-access reference,
// so every expectation below is checked on both.
func identify(t *testing.T, profiles []pmc.Profile, opt pmc.Options) *pmc.Set {
	t.Helper()
	set := pmc.Identify(profiles, opt)
	if d := difftest.Diff(difftest.Reference(profiles, opt), set); d != "" {
		t.Fatalf("Identify diverges from the per-access reference:\n%s", d)
	}
	return set
}

func TestIdentifyBasicPMC(t *testing.T) {
	profiles := []pmc.Profile{
		{TestID: 0, Accesses: wAcc(insW1, 0x100, 8, 42)},
		{TestID: 1, Accesses: rAcc(insR1, 0x100, 8, 7)},
	}
	set := identify(t, profiles, pmc.DefaultOptions())
	if set.Len() != 1 {
		t.Fatalf("PMCs: %d, want 1", set.Len())
	}
	for key, e := range set.Entries {
		if key.Write.Ins != insW1 || key.Read.Ins != insR1 {
			t.Fatalf("wrong key: %v", key)
		}
		if e.PairCount != 1 || e.Pairs[0] != (pmc.Pair{Writer: 0, Reader: 1}) {
			t.Fatalf("wrong pairs: %+v", e)
		}
	}
}

func TestIdentifyValueFilter(t *testing.T) {
	// Same value written and read: the write would not change the read.
	profiles := []pmc.Profile{
		{TestID: 0, Accesses: wAcc(insW1, 0x100, 8, 42)},
		{TestID: 1, Accesses: rAcc(insR1, 0x100, 8, 42)},
	}
	if set := identify(t, profiles, pmc.DefaultOptions()); set.Len() != 0 {
		t.Fatalf("equal-value pair classified as PMC")
	}
	opt := pmc.DefaultOptions()
	opt.SkipValueFilter = true
	if set := identify(t, profiles, opt); set.Len() != 1 {
		t.Fatal("ablation did not disable the value filter")
	}
}

func TestIdentifyPartialOverlapProjection(t *testing.T) {
	// Write [0x100,0x108)=0xAA...AA, read [0x104,0x106): projected bytes
	// equal -> no PMC; projected bytes differ -> PMC.
	profiles := []pmc.Profile{
		{TestID: 0, Accesses: wAcc(insW1, 0x100, 8, 0xAAAA_BBBB_CCCC_DDDD)},
		{TestID: 1, Accesses: rAcc(insR1, 0x104, 2, 0xBBBB)},
	}
	if set := identify(t, profiles, pmc.DefaultOptions()); set.Len() != 0 {
		t.Fatal("projection-equal pair classified as PMC")
	}
	profiles[1].Accesses = rAcc(insR1, 0x104, 2, 0x1234)
	if set := identify(t, profiles, pmc.DefaultOptions()); set.Len() != 1 {
		t.Fatal("projection-different pair missed")
	}
}

func TestIdentifyNoOverlapNoPMC(t *testing.T) {
	profiles := []pmc.Profile{
		{TestID: 0, Accesses: wAcc(insW1, 0x100, 4, 1)},
		{TestID: 1, Accesses: rAcc(insR1, 0x104, 4, 2)},
	}
	if set := identify(t, profiles, pmc.DefaultOptions()); set.Len() != 0 {
		t.Fatal("disjoint ranges produced a PMC")
	}
}

func TestIdentifySelfPairs(t *testing.T) {
	accs := wAcc(insW1, 0x100, 8, 1)
	accs.Record(insR1, 0x100, 2, trace.Meta(8))
	profiles := []pmc.Profile{{TestID: 0, Accesses: accs}}
	set := identify(t, profiles, pmc.DefaultOptions())
	if set.Len() != 1 {
		t.Fatalf("self pair missed: %d", set.Len())
	}
	opt := pmc.DefaultOptions()
	opt.AllowSelfPairs = false
	if set := identify(t, profiles, opt); set.Len() != 0 {
		t.Fatal("self pair kept despite AllowSelfPairs=false")
	}
}

func TestIdentifyDFLeaderPropagates(t *testing.T) {
	reads := rAcc(insR1, 0x100, 8, 2)
	reads.Record(insR2, 0x100, 2, trace.Meta(8))
	profiles := []pmc.Profile{
		{TestID: 0, Accesses: wAcc(insW1, 0x100, 8, 1)},
		{TestID: 1, Accesses: reads, DFLeader: map[int]bool{0: true}},
	}
	set := identify(t, profiles, pmc.DefaultOptions())
	var leaders, nonLeaders int
	for key := range set.Entries {
		if key.DFLeader {
			leaders++
			if key.Read.Ins != insR1 {
				t.Fatalf("wrong leader read: %v", key)
			}
		} else {
			nonLeaders++
		}
	}
	if leaders != 1 || nonLeaders != 1 {
		t.Fatalf("leaders=%d nonLeaders=%d", leaders, nonLeaders)
	}
}

func TestPairCapAndCount(t *testing.T) {
	// One PMC key shared by many test pairs: the pair list is capped but
	// the count is exact.
	var profiles []pmc.Profile
	n := pmc.MaxPairsPerPMC + 10
	for i := 0; i < n; i++ {
		profiles = append(profiles,
			pmc.Profile{TestID: 2 * i, Accesses: wAcc(insW1, 0x100, 8, 1)},
			pmc.Profile{TestID: 2*i + 1, Accesses: rAcc(insR1, 0x100, 8, 2)},
		)
	}
	set := identify(t, profiles, pmc.DefaultOptions())
	if set.Len() != 1 {
		t.Fatalf("keys: %d", set.Len())
	}
	for _, e := range set.Entries {
		if len(e.Pairs) != pmc.MaxPairsPerPMC {
			t.Fatalf("pair list %d, want cap %d", len(e.Pairs), pmc.MaxPairsPerPMC)
		}
		if e.PairCount != int64(n*n) {
			t.Fatalf("pair count %d, want %d", e.PairCount, n*n)
		}
	}
	if set.TotalCombinations != int64(n*n) {
		t.Fatalf("total combinations %d", set.TotalCombinations)
	}
}

func TestPMCStrings(t *testing.T) {
	p := pmc.PMC{
		Write:    pmc.Key{Ins: insW1, Addr: 0x100, Size: 8, Val: 1},
		Read:     pmc.Key{Ins: insR1, Addr: 0x100, Size: 8, Val: 2},
		DFLeader: true,
	}
	s := p.String()
	if s == "" || s[len(s)-4:] != "[df]" {
		t.Fatalf("string %q", s)
	}
}

func TestIdentifyIgnoresWriteWritePairs(t *testing.T) {
	// Two writes never form a PMC by themselves (the paper: "such
	// situations still require a read after a write").
	profiles := []pmc.Profile{
		{TestID: 0, Accesses: wAcc(insW1, 0x100, 8, 1)},
		{TestID: 1, Accesses: wAcc(insW2, 0x100, 8, 2)},
	}
	if set := identify(t, profiles, pmc.DefaultOptions()); set.Len() != 0 {
		t.Fatal("write/write pair classified as PMC")
	}
}
