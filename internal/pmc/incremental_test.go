package pmc_test

import (
	"testing"

	"snowboard/internal/obs"
	"snowboard/internal/pmc"
)

// TestIncrementalEmpty pins the degenerate case: an empty batch is a no-op
// — the set stays empty and no batch is counted.
func TestIncrementalEmpty(t *testing.T) {
	before := obs.C(obs.MIncrBatches).Value()
	inc := pmc.NewIncremental(pmc.DefaultOptions())
	inc.AddBatch(nil)
	if n := inc.Set().Len(); n != 0 {
		t.Fatalf("empty batch identified %d PMCs", n)
	}
	if d := obs.C(obs.MIncrBatches).Value() - before; d != 0 {
		t.Fatalf("empty batch moved pmc.incremental.batches by %d", d)
	}
}
