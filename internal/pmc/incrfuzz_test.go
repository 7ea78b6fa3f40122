package pmc_test

import (
	"testing"

	"snowboard/internal/pmc"
	"snowboard/internal/pmc/difftest"
)

// FuzzIncrementalIdentify is the fuzz-driven face of the differential
// harness (external test package, so it can import difftest without a
// cycle): for arbitrary byte-derived corpora, batch counts and options,
// incremental identification must deep-equal the per-access reference.
// k's high bit ablates the value filter. CI runs this for a short smoke;
// longer local runs explore deeper.
func FuzzIncrementalIdentify(f *testing.F) {
	f.Add([]byte{}, uint8(1), false)
	f.Add([]byte{1, 1, 0, 7, 42, 0, 0, 0, 0, 2, 0, 7, 7, 0, 1, 0}, uint8(2), false)
	f.Add([]byte{3, 1, 3, 1, 9, 0, 0, 0, 0, 2, 4, 3, 9, 0, 1, 0}, uint8(7), true)
	f.Add(difftest.CaseSeed(), uint8(3), false)
	f.Add(difftest.CaseSeed(), uint8(0x83), true)
	f.Fuzz(func(t *testing.T, data []byte, k uint8, selfPairs bool) {
		if len(data) > 2048 {
			// The reference is quadratic in colliding accesses; bound the
			// corpus so no single input dominates a fuzzing session.
			data = data[:2048]
		}
		profiles := difftest.FromBytes(data)
		opt := pmc.DefaultOptions()
		opt.AllowSelfPairs = selfPairs
		opt.SkipValueFilter = k&0x80 != 0
		want := difftest.Reference(profiles, opt)

		batches := difftest.Partition(profiles, 1+int(k)%len(profiles))
		inc := pmc.NewIncremental(opt)
		for _, b := range batches {
			inc.AddBatch(b)
		}
		if d := difftest.Diff(want, inc.Set()); d != "" {
			t.Fatalf("incremental (k=%d) diverges from the reference:\n%s", len(batches), d)
		}
	})
}
