package core

import (
	"fmt"
	"strings"
	"testing"

	"snowboard/internal/detect"
)

func TestFullPipelineSmoke(t *testing.T) {
	opts := DefaultOptions()
	opts.Seed = 10
	opts.FuzzBudget = 300
	opts.CorpusCap = 80
	opts.TestBudget = 40
	opts.Trials = 12
	r, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", r)
	t.Logf("corpus=%d accesses=%d pmcs=%d combos=%d accuracy=%.2f",
		r.CorpusSize, r.ProfiledAccesses, r.DistinctPMCs, r.PMCCombinations, r.Accuracy())
	for id, rec := range r.Issues {
		t.Logf("issue #%d after %d tests (trial %d): %s", id, rec.TestIndex, rec.Trial, rec.Issue.Desc)
	}
	for _, u := range r.Unknown {
		t.Logf("UNKNOWN: %s", u.Desc)
	}
	if r.CorpusSize == 0 || r.DistinctPMCs == 0 {
		t.Fatal("pipeline produced no corpus or PMCs")
	}
	if r.TestedPMCs == 0 {
		t.Fatal("no hinted tests executed")
	}
	if len(r.Issues) == 0 {
		t.Fatal("pipeline found no issues at all (even #13 should appear)")
	}
	if len(r.Unknown) > 0 {
		t.Errorf("unclassified findings present: %d", len(r.Unknown))
	}
}

// TestRunNeverDropsAJob: a local batch whose jobs no Worker explores — a
// trial budget past MaxTrials is nacked as malformed until it
// dead-letters — fails the run and names the jobs, rather than returning a
// report that generated tests and tested none.
func TestRunNeverDropsAJob(t *testing.T) {
	opts := DefaultOptions()
	opts.Seed, opts.FuzzBudget, opts.CorpusCap, opts.TestBudget, opts.Trials = 3, 150, 40, 3, MaxTrials+1
	opts.Workers = 2
	r, err := Run(opts)
	if err == nil {
		t.Fatalf("Run generated %d tests, tested %d, and returned no error", r.GeneratedTests, r.TestedTests)
	}
	for _, want := range []string{"jobs [0 1 2] dead-lettered", fmt.Sprintf("trial budget %d", MaxTrials+1)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Run's error %q does not say %q", err, want)
		}
	}
}

// TestRunExploresWithItsDetectOptions: the pipeline's Workers explore with
// Options.Detect, not the workers' default oracles: a run that finds a
// data race under the default options finds none with only the console
// oracle on.
func TestRunExploresWithItsDetectOptions(t *testing.T) {
	races := func(d detect.Options) (n int) {
		t.Helper()
		opts := DefaultOptions()
		opts.Seed, opts.FuzzBudget, opts.CorpusCap, opts.TestBudget, opts.Trials = 3, 150, 40, 6, 4
		opts.Detect = d
		r, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range r.Issues {
			if rec.Issue.Kind == detect.KindDataRace {
				n++
			}
		}
		for _, is := range r.Unknown {
			if is.Kind == detect.KindDataRace {
				n++
			}
		}
		return n
	}
	if n := races(detect.DefaultOptions()); n == 0 {
		t.Fatal("the default oracles found no data race to compare")
	}
	if n := races(detect.Options{Console: true}); n != 0 {
		t.Fatalf("%d data races found with the race oracle off", n)
	}
}
