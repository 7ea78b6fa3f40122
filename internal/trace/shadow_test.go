package trace

import (
	"math"
	"testing"
)

func TestShadowInsertGrowReset(t *testing.T) {
	var s Shadow[int]
	if s.Get(7) != nil || s.Len() != 0 {
		t.Fatal("zero table is not empty")
	}
	const n = 10 * shadowMinSlots // forces several doublings
	for round := 0; round < 3; round++ {
		for k := uint64(0); k < n; k++ {
			p := s.Slot(k * 0x1000) // a stride that collides without a good hash
			if *p != 0 {
				t.Fatalf("round %d: fresh slot for key %#x holds %d", round, k*0x1000, *p)
			}
			*p = int(k) + 1
		}
		if s.Len() != n {
			t.Fatalf("round %d: Len %d, want %d", round, s.Len(), n)
		}
		for k := uint64(0); k < n; k++ {
			if p := s.Get(k * 0x1000); p == nil || *p != int(k)+1 {
				t.Fatalf("round %d: key %#x lost across growth", round, k*0x1000)
			}
			if s.Slot(k*0x1000) != s.Get(k*0x1000) {
				t.Fatalf("round %d: Slot and Get disagree on key %#x", round, k*0x1000)
			}
		}
		if s.Get(0x123) != nil {
			t.Fatal("absent key found")
		}
		slots := len(s.slots)
		s.Reset()
		if s.Len() != 0 || s.Get(0) != nil || len(s.slots) != slots {
			t.Fatalf("round %d: Reset left %d keys, %d slots (had %d)", round, s.Len(), len(s.slots), slots)
		}
	}
}

// A generation wrap must not resurrect slots stamped 2^32 resets ago.
func TestShadowGenerationWrap(t *testing.T) {
	var s Shadow[int]
	*s.Slot(1) = 11 // stamped 1, the generation the wrap lands on
	s.Reset()
	*s.Slot(2) = 22
	s.gen = math.MaxUint32
	*s.Slot(3) = 33
	s.Reset()
	*s.Slot(9) = 99 // a live key, so Get consults the stamps
	for _, k := range []uint64{1, 2, 3} {
		if s.Get(k) != nil {
			t.Fatalf("key %d survived the wrap", k)
		}
	}
	if s.Len() != 1 || *s.Slot(1) != 0 {
		t.Fatal("slot reused across the wrap kept its value")
	}
}
