package pmc

import (
	"fmt"
	"math/rand"
	"testing"

	"snowboard/internal/exec"
	"snowboard/internal/fuzz"
	"snowboard/internal/kernel"
	"snowboard/internal/trace"
)

// TestByWriteFilterNeverMisses: the filter in front of ByWrite's map may
// say yes to a key without a span, never no to one with a span — for every
// write key of the sets two real campaigns identify, for random keys near
// them, and for sets of every size from empty on. It also reports how many
// keys without a span it lets through.
func TestByWriteFilterNeverMisses(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	check := func(name string, s *Set) (passed, absent int) {
		t.Helper()
		s.ByWrite(Key{})
		idx := s.byWrite.Load()
		for k := range idx.spans {
			if w, b := idx.filterBit(k); idx.filter[w]&b == 0 {
				t.Fatalf("%s: the filter says no to %v, which has %d PMCs", name, k, len(s.ByWrite(k)))
			}
		}
		for k := range idx.spans {
			for i := 0; i < 8; i++ {
				r := k
				switch rng.Intn(4) {
				case 0:
					r.Val = rng.Uint64()
				case 1:
					r.Addr += uint64(rng.Intn(64))
				case 2:
					r.Ins = trace.Ins(rng.Uint32())
				default:
					r.Size = uint8(1 + rng.Intn(8))
				}
				if _, ok := idx.spans[r]; ok {
					continue
				}
				absent++
				if w, b := idx.filterBit(r); idx.filter[w]&b != 0 {
					passed++
				}
				if len(s.ByWrite(r)) != 0 {
					t.Fatalf("%s: ByWrite answers %v, which has no span", name, r)
				}
			}
		}
		return passed, absent
	}
	for _, seed := range []int64{3, 7} {
		env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
		var profiles []Profile
		for i, p := range fuzz.Campaign(env, seed, 300, 60).Corpus.Progs {
			accs, df, _ := env.Profile(p)
			profiles = append(profiles, Profile{TestID: i, Accesses: accs, DFLeader: df})
		}
		env.Close()
		s := Identify(profiles, DefaultOptions())
		passed, absent := check(fmt.Sprintf("seed %d", seed), s)
		t.Logf("seed %d: %d write keys in %d filter bits; %d of %d absent keys pass",
			seed, len(s.byWrite.Load().spans), 64*len(s.byWrite.Load().filter), passed, absent)
	}
	s := NewSet()
	for n := 0; n < 300; n++ {
		check("random", s)
		w := Key{Ins: trace.Ins(rng.Intn(16)), Addr: uint64(rng.Intn(256)), Size: uint8(1 + rng.Intn(8)), Val: uint64(rng.Intn(4))}
		s.Add(PMC{Write: w, Read: Key{Ins: trace.Ins(rng.Intn(16)), Addr: w.Addr}}, Pair{})
	}
}
