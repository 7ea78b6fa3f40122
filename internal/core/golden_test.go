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
// feedback. Anything under a trial that changes which thread runs when —
// the handoff, the kill protocol, step accounting, which PMCs are under
// test — moves these; a change that means to move them re-records them and
// says why. Last re-recorded when incidental adoption began skipping PMCs
// whose clusters the same batch tests: the one-shot runs test every
// cluster and now adopt nothing, and each feedback round adopts only from
// clusters it does not test. The feedback entries were re-recorded alone
// when the loop stopped mutating schedules, and again when it stopped
// allocating rounds by segment yield: every round now walks on
// uncommon-first, so it draws other tests. They were re-recorded alone once
// more when CoverPairs began counting the run's distinct pairs rather than
// adding each round's (seed 3: 269 → 107 pairs, 8498e724… → da8e3372…;
// seed 7: 302 → 119, 752ceff2… → d3e2a982…); nothing else in them moved.
func TestReportDigestGolden(t *testing.T) {
	golden := map[string]string{
		"seed=3/feedback=false": "96aa8a755b7e9e148d41b89f10119ae21b68841e5407f484d9f3d59e0aa76a2c",
		"seed=3/feedback=true":  "da8e33724ea5924ca46e7e9f776e70d21bc8e93aa0699717bda592f6a06cb64f",
		"seed=7/feedback=false": "e12327d4818c1556ee38955c507faf6681db32223a23d368d145c2de80215874",
		"seed=7/feedback=true":  "d3e2a982c1bca14b7da1182be8ae940cf95cfeb6d88e231ba1847faee3e69d16",
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
