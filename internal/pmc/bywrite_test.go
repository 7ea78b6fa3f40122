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

// spanModel is the map from write key to span the index's table replaced,
// kept as its model: each write key's PMCs are one run of the canonical
// order.
func spanModel(idx *writeIndex) map[Key][2]int {
	m := make(map[Key][2]int)
	for lo := 0; lo < len(idx.pmcs); {
		hi := lo + 1
		for hi < len(idx.pmcs) && idx.pmcs[hi].Write == idx.pmcs[lo].Write {
			hi++
		}
		m[idx.pmcs[lo].Write] = [2]int{lo, hi}
		lo = hi
	}
	return m
}

// checkByWrite fails unless ByWriteRead answers k as the model does: the
// PMCs of its span (the very elements of the canonical order) and their
// read key ids, or nothing.
func checkByWrite(t *testing.T, name string, s *Set, model map[Key][2]int, k Key) {
	t.Helper()
	idx := s.byWrite.Load()
	got, reads := s.ByWriteRead(k)
	span, ok := model[k]
	if !ok {
		if len(got) != 0 || len(reads) != 0 {
			t.Fatalf("%s: ByWriteRead answers %v, which has no span", name, k)
		}
		return
	}
	if len(got) != span[1]-span[0] || &got[0] != &idx.pmcs[span[0]] || len(reads) != len(got) || &reads[0] != &idx.reads[span[0]] {
		t.Fatalf("%s: ByWriteRead(%v) answers %d PMCs, the model's span is %v", name, k, len(got), span)
	}
}

// inverse returns the multiplicative inverse of odd c modulo 2⁶⁴.
func inverse(c uint64) uint64 {
	x := c
	for i := 0; i < 5; i++ {
		x *= 2 - c*x
	}
	return x
}

// collidingKey returns base with its value chosen so that keyHash gives
// 0x5A5A5A<<40 | i: for i < 2⁴⁰ every member shares a filter bit and the
// home slot of the span table at every size a test builds.
func collidingKey(base Key, i uint64) Key {
	x := uint64(base.Ins)<<32 ^ base.Addr ^ uint64(base.Size)<<58
	base.Val = (0x5A5A5A<<40|i)*inverse(0xBF58476D1CE4E5B9) ^ x*0x9E3779B97F4A7C15
	return base
}

// TestByWriteFilterNeverMisses: the filter in front of ByWriteRead's table may
// say yes to a key without a span, never no to one with a span — for every
// write key of the sets two real campaigns identify, for random keys near
// them, and for sets of every size from empty on. The table answers every
// such key as the map model does, and so it does for a family of keys that
// all hash alike; read key ids are dense and equal exactly when the read
// keys are. It also reports how many keys without a span the filter lets
// through.
func TestByWriteFilterNeverMisses(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	check := func(name string, s *Set) (passed, absent int) {
		t.Helper()
		s.ByWriteRead(Key{})
		idx := s.byWrite.Load()
		model := spanModel(idx)
		for k := range model {
			if w, b := idx.filterBit(keyHash(k)); idx.filter[w]&b == 0 {
				pmcs, _ := s.ByWriteRead(k)
				t.Fatalf("%s: the filter says no to %v, which has %d PMCs", name, k, len(pmcs))
			}
			checkByWrite(t, name, s, model, k)
		}
		ids := make(map[Key]int32)
		for i, p := range idx.pmcs {
			id, seen := ids[p.Read]
			if !seen {
				id = idx.reads[i]
				ids[p.Read] = id
			}
			if idx.reads[i] != id || id < 0 || int(id) >= idx.nReads {
				t.Fatalf("%s: PMC %d's read key has id %d, an earlier PMC's with it %d (of %d)", name, i, idx.reads[i], id, idx.nReads)
			}
		}
		if len(ids) != idx.nReads || s.ReadKeys() != idx.nReads {
			t.Fatalf("%s: %d distinct read keys, %d ids, ReadKeys %d", name, len(ids), idx.nReads, s.ReadKeys())
		}
		for k := range model {
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
				checkByWrite(t, name, s, model, r)
				if _, ok := model[r]; ok {
					continue
				}
				absent++
				if w, b := idx.filterBit(keyHash(r)); idx.filter[w]&b != 0 {
					passed++
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
		idx := s.byWrite.Load()
		t.Logf("seed %d: %d write keys in %d table slots and %d filter bits, %d read keys; %d of %d absent keys pass",
			seed, len(spanModel(idx)), len(idx.spans), 64*len(idx.filter), idx.nReads, passed, absent)
	}
	s := NewSet()
	for n := 0; n < 300; n++ {
		check("random", s)
		w := Key{Ins: trace.Ins(rng.Intn(16)), Addr: uint64(rng.Intn(256)), Size: uint8(1 + rng.Intn(8)), Val: uint64(rng.Intn(4))}
		s.Add(PMC{Write: w, Read: Key{Ins: trace.Ins(rng.Intn(16)), Addr: w.Addr}}, Pair{})
	}
	// Colliding write keys, every other member of the family present with
	// one to three PMCs, beside a few ordinary keys: a lookup of any member
	// probes past the others to its own span or to an empty slot.
	s = NewSet()
	base := Key{Ins: trace.Ins(5), Addr: 0x1000, Size: 8}
	for i := uint64(0); i < 40; i += 2 {
		for r := uint64(0); r <= i%3; r++ {
			s.Add(PMC{Write: collidingKey(base, i), Read: Key{Ins: trace.Ins(9), Addr: 0x1000, Size: 8, Val: r}}, Pair{})
		}
		s.Add(PMC{Write: Key{Ins: trace.Ins(i), Addr: 0x2000, Size: 4}, Read: base}, Pair{})
	}
	check("colliding", s)
	model := spanModel(s.byWrite.Load())
	for i := uint64(0); i < 48; i++ {
		checkByWrite(t, "colliding", s, model, collidingKey(base, i))
	}
	k := collidingKey(base, 0)
	if pmcs, _ := s.ByWriteRead(k); keyHash(k)>>40 != keyHash(collidingKey(base, 39))>>40 || len(pmcs) != 1 {
		t.Fatalf("the colliding family does not collide or lost its members: %d PMCs for member 0", len(pmcs))
	}
}
