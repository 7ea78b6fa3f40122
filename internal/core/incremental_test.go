package core

import (
	"reflect"
	"testing"
)

// incrTestOptions is a configuration whose corpus keeps growing from the
// half budget to the full budget, so the rerun on the same state dir really
// re-profiles and re-identifies (empirically, seed 5: budget 60 → 23
// profiles, budget 150 → 33).
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
