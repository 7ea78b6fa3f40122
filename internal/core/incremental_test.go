package core

import (
	"reflect"
	"testing"

	"snowboard/internal/obs"
	"snowboard/internal/pmc/difftest"
	"snowboard/internal/store"
)

// incrTestOptions is a configuration whose corpus comfortably exceeds one
// identifyBatchSize batch at the half budget and keeps growing at the full
// budget, so the resume tests exercise a real snapshot prefix plus a real
// delta (empirically, seed 5: budget 60 → 23 profiles, budget 150 → 33).
func incrTestOptions(t *testing.T) Options {
	t.Helper()
	opts := DefaultOptions()
	opts.Seed = 5
	opts.FuzzBudget = 60
	opts.CorpusCap = 200
	opts.TestBudget = 6
	opts.Trials = 4
	opts.StateDir = t.TempDir()
	return opts
}

// runAnalysis drives stages 1–2 on a fresh pipeline attached to the
// options' state directory, returning the pipeline for inspection.
func runAnalysis(t *testing.T, opts Options) *Pipeline {
	t.Helper()
	p := NewPipeline(opts)
	st, err := store.Open(opts.StateDir)
	if err != nil {
		t.Fatal(err)
	}
	p.UseStore(st)
	r := p.NewReport()
	p.BuildCorpus(r)
	if err := p.ProfileAll(r); err != nil {
		t.Fatal(err)
	}
	p.IdentifyPMCs(r)
	return p
}

// TestResumeIncrementalDelta is the incremental-resume contract end to
// end: a half-budget campaign persists an SBPI snapshot; a full-budget
// campaign over the same state re-identifies ONLY the profiles past the
// snapshot — measured exactly via the pmc.incremental.delta_pairs counter
// — and still produces the set the per-access reference identifies over
// the full corpus.
func TestResumeIncrementalDelta(t *testing.T) {
	opts := incrTestOptions(t)
	half := runAnalysis(t, opts)
	nHalf := len(half.Profiles)
	if nHalf < identifyBatchSize {
		t.Fatalf("half corpus has %d profiles, need >= %d for a snapshot; re-tune incrTestOptions", nHalf, identifyBatchSize)
	}

	opts.FuzzBudget = 150
	batchesBefore := obs.C(obs.MIncrBatches).Value()
	deltaBefore := obs.C(obs.MIncrDeltaPairs).Value()
	full := runAnalysis(t, opts)
	batchesDelta := obs.C(obs.MIncrBatches).Value() - batchesBefore
	deltaPairs := obs.C(obs.MIncrDeltaPairs).Value() - deltaBefore

	nFull := len(full.Profiles)
	if nFull <= nHalf {
		t.Fatalf("full corpus (%d) did not outgrow half corpus (%d); re-tune incrTestOptions", nFull, nHalf)
	}

	// Corpus prefix property: deterministic in-order admission means the
	// half-budget corpus is a strict prefix of the full-budget one — the
	// alignment the chain keys rely on.
	for i, prog := range half.Corpus.Progs {
		if full.Corpus.Progs[i].String() != prog.String() {
			t.Fatalf("corpus prefix property violated at program %d", i)
		}
	}

	// The snapshot covers the half run's full batches; the second run must
	// have fed exactly the batches past it (plus the sub-batch tail).
	snapshot := (nHalf / identifyBatchSize) * identifyBatchSize
	fullBatches := nFull / identifyBatchSize
	wantBatches := int64(fullBatches - snapshot/identifyBatchSize)
	if nFull%identifyBatchSize != 0 {
		wantBatches++
	}
	if batchesDelta != wantBatches {
		t.Errorf("full run ingested %d incremental batches, want %d (snapshot should cover the first %d profiles)",
			batchesDelta, wantBatches, snapshot)
	}

	// Delta accounting: combinations scanned during the resumed run equal
	// the full total minus what the snapshot already carried.
	prefixSet := difftest.Reference(full.Profiles[:snapshot], opts.PMC)
	wantDelta := full.PMCs.TotalCombinations - prefixSet.TotalCombinations
	if deltaPairs != wantDelta {
		t.Errorf("delta scans identified %d combinations, want %d (= full %d - snapshot prefix %d)",
			deltaPairs, wantDelta, full.PMCs.TotalCombinations, prefixSet.TotalCombinations)
	}

	// And the headline: the resumed incremental set deep-equals the
	// per-access reference over the full profile set.
	if d := difftest.Diff(difftest.Reference(full.Profiles, opts.PMC), full.PMCs); d != "" {
		t.Errorf("resumed incremental set diverges from the reference:\n%s", d)
	}
}

// TestResumeHalfThenFullEqualsSingleShot runs the whole pipeline both ways
// — one cold full-budget campaign, versus a half-budget campaign resumed
// at the full budget in the same state directory — and requires the final
// reports to be deep-equal modulo wall-clock timings and the metrics
// registry (the same normalization the CI resume smoke applies).
func TestResumeHalfThenFullEqualsSingleShot(t *testing.T) {
	optsA := incrTestOptions(t)
	optsA.FuzzBudget = 150
	single, err := Run(optsA)
	if err != nil {
		t.Fatal(err)
	}

	optsB := incrTestOptions(t) // fresh state dir
	if _, err := Run(optsB); err != nil {
		t.Fatal(err)
	}
	optsB.FuzzBudget = 150
	resumed, err := Run(optsB)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(normalizeTimings(resumed), normalizeTimings(single)) {
		t.Error("resumed half-then-full report differs from single-shot full report")
	}
	if single.TestedTests == 0 {
		t.Error("single-shot run executed no tests; comparison is vacuous")
	}
}
