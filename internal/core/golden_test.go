package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
)

// TestReportDigestGolden pins whole reports across commits: the SHA-256 of
// the timing-normalised report JSON for seeds 3 and 7, one-shot and
// feedback, recorded at 900e111, the last commit whose threads handed off
// over channels. Anything under a trial that changes which thread runs
// when — the handoff, the kill protocol, step accounting — moves these; a
// change that means to move them re-records them and says why.
func TestReportDigestGolden(t *testing.T) {
	golden := map[string]string{
		"seed=3/feedback=false": "c32150b6f0a3b3ab66f1ffa355e7ba7960e87bd53bd5a303195b95bc5144558d",
		"seed=3/feedback=true":  "c04daf9cebf85a6d14fd15fe9c8a45512a4f8eba4f66bfdfad287359214c761d",
		"seed=7/feedback=false": "897f831831a75ea547a858c0f06392f5bf421d731e2a1f67ed0d706c6bb1d0b2",
		"seed=7/feedback=true":  "e6d7f230e98ee615ee4d1b9f76997ceafca90a4bd7baef272b4c8496a30e63ed",
	}
	for _, seed := range []int64{3, 7} {
		for _, feedback := range []bool{false, true} {
			opts := DefaultOptions()
			opts.Seed = seed
			opts.FuzzBudget = 600
			opts.CorpusCap = 150
			opts.TestBudget = 200
			opts.Trials = 12
			opts.Workers = 2
			opts.Feedback = feedback
			r, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if r.TrialsRun == 0 || len(r.Issues) == 0 {
				t.Fatalf("degenerate run: %d trials, %d issues", r.TrialsRun, len(r.Issues))
			}
			b, err := json.Marshal(normalizeTimings(r))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			name := fmt.Sprintf("seed=%d/feedback=%t", seed, feedback)
			got := hex.EncodeToString(sum[:])
			if want := golden[name]; got != want {
				t.Errorf("%s: report digest %s, want %s (trials=%d issues=%d)", name, got, want, r.TrialsRun, len(r.Issues))
			}
		}
	}
}
