package core

import (
	"reflect"
	"testing"

	"snowboard/internal/detect"
	"snowboard/internal/exec"
	"snowboard/internal/kernel"
	"snowboard/internal/obs"
	"snowboard/internal/queue"
	"snowboard/internal/store"
	"snowboard/internal/triage"
)

// triageOpts is a small campaign known to surface a crash-level finding
// (Table 2 issue #3) with recorded repro state.
func triageOpts(seed int64) Options {
	opts := DefaultOptions()
	opts.Seed = seed
	opts.Method, _ = MethodByName("S-CH-NULL")
	opts.FuzzBudget = 400
	opts.CorpusCap = 100
	opts.TestBudget = 60
	opts.Trials = 24
	return opts
}

func triageSummaries(r *Report) map[int]TriageSummary {
	out := make(map[int]TriageSummary)
	for id, rec := range r.Issues {
		if rec.Triage != nil {
			out[id] = *rec.Triage
		}
	}
	return out
}

// TestTriageWorkerInvariant pins the determinism contract for the triage
// stage: every finding with recorded repro state carries a minimized
// bundle digest, sizes never grow, and the triage fields — signatures,
// bundle digests, stats — are identical at 1, 2, and 8 workers.
func TestTriageWorkerInvariant(t *testing.T) {
	var base map[int]TriageSummary
	for _, workers := range []int{1, 2, 8} {
		opts := triageOpts(3)
		opts.Workers = workers
		r, err := Run(opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sums := triageSummaries(r)
		if len(sums) == 0 {
			t.Fatalf("workers=%d: no triaged findings", workers)
		}
		for id, rec := range r.Issues {
			if rec.Repro == nil {
				continue
			}
			if rec.Triage == nil {
				t.Fatalf("workers=%d: issue #%d has repro state but no triage summary", workers, id)
			}
			s := rec.Triage.Stats
			if s.DecisionsMin > s.DecisionsOrig {
				t.Fatalf("issue #%d: minimized schedule grew: %+v", id, s)
			}
			if s.WriterCallsMin > s.WriterCallsOrig || s.ReaderCallsMin > s.ReaderCallsOrig {
				t.Fatalf("issue #%d: minimized test grew: %+v", id, s)
			}
			if rec.Triage.Bundle == "" || rec.Triage.Signature == "" {
				t.Fatalf("issue #%d: empty bundle digest or signature", id)
			}
		}
		if base == nil {
			base = sums
		} else if !reflect.DeepEqual(base, sums) {
			t.Fatalf("workers=%d: triage summaries diverge:\n%v\nvs baseline\n%v", workers, sums, base)
		}
	}
}

// replayStoredBundle loads the SBRB bundle a triage summary names and
// replays it in a brand-new environment through triage.Replay — the door
// sbrepro -min uses: the replay must reproduce exactly the signature
// recorded in the bundle and in the report.
func replayStoredBundle(t *testing.T, s *store.Store, id int, sum *TriageSummary, opt detect.Options) {
	t.Helper()
	d, err := store.ParseDigest(sum.Bundle)
	if err != nil {
		t.Fatalf("issue #%d: bad bundle digest: %v", id, err)
	}
	b, err := triage.LoadBundle(s, d)
	if err != nil {
		t.Fatalf("issue #%d: load bundle: %v", id, err)
	}
	if b.Signature.Key() != sum.Signature {
		t.Fatalf("issue #%d: bundle signature %q != report %q", id, b.Signature.Key(), sum.Signature)
	}
	env := exec.NewEnv(kernel.Config{Version: b.Kernel})
	defer env.Close()
	sig, ok := triage.SignatureOfIssues(triage.Replay(env, b.Test(), b.State, opt).Issues, b.Hint, b.BugID)
	if !ok {
		t.Fatalf("issue #%d: fresh replay exposed no crash-level issue", id)
	}
	if sig != b.Signature {
		t.Fatalf("issue #%d: fresh replay signature %q != bundle %q", id, sig.Key(), b.Signature.Key())
	}
}

// TestTriageBundleReplaysInFreshEnv round-trips a bundle through the store
// and replays it in a brand-new environment: the replay must reproduce the
// exact crash signature recorded in the bundle.
func TestTriageBundleReplaysInFreshEnv(t *testing.T) {
	opts := triageOpts(3)
	opts.StateDir = t.TempDir()
	r, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(opts.StateDir)
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for id, rec := range r.Issues {
		if rec.Triage != nil {
			replayStoredBundle(t, s, id, rec.Triage, opts.Detect)
			replayed++
		}
	}
	if replayed == 0 {
		t.Fatal("no bundles to replay")
	}
}

// TestEveryFindingReplays is the campaign-level replay property (the paper's
// §6 promise): over seeds 3 and 7 — one-shot, closed-loop, and delivered
// through a campaign's queue as sbd runs it — every recorded trial replays
// through the one door to a crash-level issue, and every minimized bundle
// loads from the state dir and replays in a fresh kernel to exactly its
// recorded signature.
func TestEveryFindingReplays(t *testing.T) {
	for _, seed := range []int64{3, 7} {
		for _, cell := range []string{"one-shot", "feedback", "sbd"} {
			opts := triageOpts(seed)
			opts.Feedback = cell == "feedback"
			opts.StateDir = t.TempDir()
			var r *Report
			var err error
			if cell == "sbd" {
				reg := queue.NewRegistry(queue.Options{})
				var c *Campaign
				c, err = StartCampaign(CampaignSpec{
					Method: opts.Method.Name, Seed: seed, FuzzBudget: opts.FuzzBudget,
					CorpusCap: opts.CorpusCap, TestBudget: opts.TestBudget, Trials: opts.Trials,
				}, CampaignEnv{Registry: reg, StateDir: opts.StateDir})
				if err == nil {
					r, err = c.Wait()
				}
				reg.Close()
			} else {
				r, err = Run(opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			s, err := store.Open(opts.StateDir)
			if err != nil {
				t.Fatal(err)
			}
			env := exec.NewEnv(kernel.Config{Version: opts.Version})
			trials, bundles := 0, 0
			for id, rec := range r.Issues {
				if rec.Repro != nil {
					rp := triage.Replay(env, rec.Test, rec.Repro, opts.Detect)
					if _, ok := triage.SignatureOfIssues(rp.Issues, rec.Test.Hint, id); !ok {
						t.Errorf("seed %d %s issue #%d: recorded trial replays to no crash-level issue: %v",
							seed, cell, id, rp.Issues)
					}
					trials++
				}
				if rec.Triage != nil {
					replayStoredBundle(t, s, id, rec.Triage, opts.Detect)
					bundles++
				}
			}
			env.Close()
			if trials == 0 || bundles != trials || bundles != len(s.List(store.KindRepro)) {
				t.Fatalf("seed %d %s: %d recorded trials, %d bundles in the report, %d in the store; want equal and non-zero",
					seed, cell, trials, bundles, len(s.List(store.KindRepro)))
			}
		}
	}
}

// TestTriageResumeSkipsMinimizedFindings pins the per-finding memo: a
// second pipeline over the same store must restore every triage summary
// from the stored bundles instead of re-minimizing.
func TestTriageResumeSkipsMinimizedFindings(t *testing.T) {
	dir := t.TempDir()
	runStages := func() *Report {
		opts := triageOpts(3)
		p := NewPipeline(opts)
		s, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		p.UseStore(s)
		r := p.NewReport()
		p.BuildCorpus(r)
		if err := p.ProfileAll(r); err != nil {
			t.Fatal(err)
		}
		p.IdentifyPMCs(r)
		tests := p.GenerateTests(r, opts.TestBudget)
		p.ExecuteTests(r, tests)
		p.TriageReport(r)
		return r
	}
	r1 := runStages()
	if len(triageSummaries(r1)) == 0 {
		t.Fatal("no triaged findings in the cold run")
	}
	cachedBefore := obs.C(obs.MTriageCached).Value()
	r2 := runStages()
	hits := obs.C(obs.MTriageCached).Value() - cachedBefore
	if int(hits) != len(triageSummaries(r1)) {
		t.Fatalf("warm run hit the triage cache %d times, want %d", hits, len(triageSummaries(r1)))
	}
	if !reflect.DeepEqual(triageSummaries(r1), triageSummaries(r2)) {
		t.Fatalf("resumed triage summaries diverge:\n%v\nvs\n%v", triageSummaries(r2), triageSummaries(r1))
	}
}

// TestTriageCrossCampaignDedup runs two campaigns with different seeds
// against one store: both expose Table 2 issue #3 through different tests
// and schedules, yet fold to a single signature row in the dedup index.
func TestTriageCrossCampaignDedup(t *testing.T) {
	dir := t.TempDir()
	var sigs []string
	for _, seed := range []int64{3, 5} {
		opts := triageOpts(seed)
		opts.StateDir = dir
		r, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		rec, ok := r.Issues[3]
		if !ok || rec.Triage == nil {
			t.Fatalf("seed %d: issue #3 not triaged", seed)
		}
		sigs = append(sigs, rec.Triage.Signature)
	}
	if sigs[0] != sigs[1] {
		t.Fatalf("the same bug got two signatures across campaigns: %q vs %q", sigs[0], sigs[1])
	}
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := triage.Lookup(s, triage.Signature{Kind: "fs-error", Site: "table2:3", Channel: "ext4_extent_grow->ext4_ext_check_inode"})
	if !ok {
		t.Fatal("signature missing from the dedup index")
	}
	if entry.Count < 2 {
		t.Fatalf("index did not fold both campaigns: %+v", entry)
	}
	if len(entry.Campaigns) != 2 {
		t.Fatalf("want two campaign labels, got %+v", entry.Campaigns)
	}
	if entry.Bundle == "" {
		t.Fatalf("index row lost its canonical bundle: %+v", entry)
	}
}
