package pmc_test

import (
	"testing"

	"snowboard/internal/pmc"
	"snowboard/internal/pmc/difftest"
	"snowboard/internal/trace"
)

// profilesFromBytes decodes an arbitrary byte string into profiles: seven
// bytes per access (kind, instruction, address offset, size, value,
// profile slot, self-pair salt), clamped into the ranges Identify accepts.
func profilesFromBytes(data []byte) []pmc.Profile {
	const perAccess = 7
	profiles := make([]pmc.Profile, 1+len(data)/(perAccess*4))
	for i := range profiles {
		profiles[i].TestID = i
	}
	for i := 0; i+perAccess <= len(data); i += perAccess {
		b := data[i : i+perAccess]
		kind := trace.Read
		if b[0]%2 == 0 {
			kind = trace.Write
		}
		acc := trace.Access{
			Ins:  trace.Ins(uint32(b[1])),
			Kind: kind,
			Addr: 0x1000 + uint64(b[2]),
			Size: 1 + b[3]%8,
			Val:  uint64(b[4]) | uint64(b[6])<<8,
		}
		slot := int(b[5]) % len(profiles)
		profiles[slot].Accesses.Record(acc.Thread, acc.Ins, acc.Kind, acc.Addr, acc.Size, acc.Val, acc.Atomic, acc.Marked, acc.Stack, acc.RCU, acc.Locks)
	}
	return profiles
}

// FuzzPMCIdentify checks Algorithm 1's core soundness invariants on
// arbitrary profiles: identification never panics, equals the per-access
// reference, and every identified PMC has (a) genuinely overlapping
// writer/reader byte ranges and (b) differing values projected onto the
// overlap, with pair accounting consistent under the bounded lists.
func FuzzPMCIdentify(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add([]byte{0, 1, 0, 7, 42, 0, 0, 1, 2, 0, 7, 7, 1, 0}, false)
	f.Add([]byte{0, 1, 3, 1, 9, 0, 0, 1, 2, 4, 3, 9, 1, 0}, true)
	f.Fuzz(func(t *testing.T, data []byte, selfPairs bool) {
		if len(data) > 2048 {
			// The reference is quadratic in colliding accesses; bound the
			// corpus so no single input dominates a fuzzing session.
			data = data[:2048]
		}
		profiles := profilesFromBytes(data)
		opt := pmc.DefaultOptions()
		opt.AllowSelfPairs = selfPairs
		set := pmc.Identify(profiles, opt)
		if d := difftest.Diff(difftest.Reference(profiles, opt), set); d != "" {
			t.Fatalf("Identify diverges from the per-access reference:\n%s", d)
		}
		var total int64
		for key, e := range set.Entries {
			w := trace.Access{Ins: key.Write.Ins, Kind: trace.Write, Addr: key.Write.Addr, Size: key.Write.Size, Val: key.Write.Val}
			r := trace.Access{Ins: key.Read.Ins, Kind: trace.Read, Addr: key.Read.Addr, Size: key.Read.Size, Val: key.Read.Val}
			if !r.Overlaps(&w) {
				t.Fatalf("PMC with non-overlapping ranges: %v", key)
			}
			lo, hi := r.OverlapRange(&w)
			if r.ProjectVal(lo, hi) == w.ProjectVal(lo, hi) {
				t.Fatalf("PMC whose write would not change the read: %v", key)
			}
			if !selfPairs {
				for _, pair := range e.Pairs {
					if pair.Writer == pair.Reader {
						t.Fatalf("self pair %v retained with AllowSelfPairs=false", pair)
					}
				}
			}
			if int64(len(e.Pairs)) > e.PairCount || len(e.Pairs) > pmc.MaxPairsPerPMC {
				t.Fatalf("pair accounting broken: %d listed, %d counted", len(e.Pairs), e.PairCount)
			}
			for i := 1; i < len(e.Pairs); i++ {
				if a, b := e.Pairs[i], e.Pairs[i-1]; a.Writer < b.Writer || (a.Writer == b.Writer && a.Reader < b.Reader) {
					t.Fatalf("pair list not canonically sorted: %v", e.Pairs)
				}
			}
			total += e.PairCount
		}
		if total != set.TotalCombinations {
			t.Fatalf("TotalCombinations %d != sum of PairCounts %d", set.TotalCombinations, total)
		}
	})
}
