package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"snowboard/internal/cluster"
	"snowboard/internal/cover"
	"snowboard/internal/kernel"
	"snowboard/internal/pmc"
	"snowboard/internal/queue"
)

// huntOpts is bench `hunt`'s campaign spec: S-INS-PAIR uncommon-first,
// fuzz 600, corpus 150, 400 tests × 24 trials.
func huntOpts(version kernel.Version, seed int64) Options {
	opts := DefaultOptions()
	opts.Version, opts.Seed = version, seed
	opts.FuzzBudget, opts.CorpusCap, opts.TestBudget, opts.Trials = 600, 150, 400, 24
	opts.Workers = 1
	return opts
}

// TestAdoptableSkipsPlannedClusters pins what incidental adoption may pick
// in a batch (Pipeline.adoptable, the list every job of the batch
// carries). At bench `hunt`'s spec every S-INS-PAIR cluster has a test,
// for seeds 3–12 on both versions, so nothing is and the explorer carries
// no KnownPMCs (the claim that `hunt` runs no lookup rests on this). Under the pairing baselines every PMC is. At a partial
// budget exactly the PMCs in no tested cluster are: those of untested
// clusters and those the strategy filters out; under S-INS a PMC only when
// both its clusters are untested. A cluster is tested when a test hints one
// of its members.
func TestAdoptableSkipsPlannedClusters(t *testing.T) {
	t.Run("hunt", func(t *testing.T) {
		for _, v := range []kernel.Version{kernel.V5_3_10, kernel.V5_12_RC3} {
			for seed := int64(3); seed <= 12; seed++ {
				p, r, tests := campaignFixture(t, huntOpts(v, seed))
				if adopt := p.adoptable(tests); len(adopt) != 0 {
					t.Errorf("%s seed %d: %d tests for %d clusters leave %d of %d PMCs adoptable",
						v, seed, len(tests), r.ExemplarPMCs, len(adopt), p.PMCs.Len())
				}
			}
		}
	})
	t.Run("pairing", func(t *testing.T) {
		for _, name := range []string{"Random pairing", "Duplicate pairing"} {
			opts := triageOpts(3)
			opts.Method, _ = MethodByName(name)
			p, _, tests := campaignFixture(t, opts)
			if adopt := p.adoptable(tests); !slices.Equal(adopt, p.PMCs.PMCs()) {
				t.Errorf("%s: the batch adopts from %d PMCs, not every one of %d", name, len(adopt), p.PMCs.Len())
			}
		}
	})
	t.Run("partial", func(t *testing.T) {
		for _, name := range []string{"S-INS-PAIR", "S-CH-NULL", "S-INS", "Random S-INS-PAIR"} {
			opts := triageOpts(3)
			opts.Method, _ = MethodByName(name)
			opts.TestBudget = 40
			p, _, tests := campaignFixture(t, opts)
			adopt := p.adoptable(tests)
			if len(adopt) == 0 {
				t.Fatalf("%s: %d tests leave nothing adoptable", name, len(tests))
			}
			known := pmc.SetOf(adopt)
			// Brute force: a cluster is tested when it holds a hint.
			hinted := make(map[pmc.PMC]bool)
			for _, ct := range tests {
				hinted[*ct.Hint] = true
			}
			clusters := make(map[pmc.PMC][]bool) // per PMC: is each of its clusters tested
			for _, c := range cluster.Clusters(p.PMCs, opts.Method.Strategy) {
				tested := false
				for _, m := range c.PMCs {
					tested = tested || hinted[m]
				}
				for _, m := range c.PMCs {
					clusters[m] = append(clusters[m], tested)
				}
			}
			var adoptable, filtered, halfTested int
			for q := range p.PMCs.Entries {
				want := true
				for _, tested := range clusters[q] {
					want = want && !tested
				}
				if _, in := known.ID(q); in != want {
					t.Fatalf("%s: %v (clusters tested: %v) adoptable %v, want %v", name, q, clusters[q], in, want)
				}
				if want {
					adoptable++
				}
				if len(clusters[q]) == 0 {
					filtered++
				}
				if len(clusters[q]) == 2 && clusters[q][0] != clusters[q][1] {
					halfTested++
				}
			}
			t.Logf("%s: %d tests, %d of %d PMCs adoptable, %d filtered out, %d with one of two clusters tested",
				name, len(tests), adoptable, p.PMCs.Len(), filtered, halfTested)
			if adoptable == 0 || adoptable == p.PMCs.Len() ||
				(name == "S-CH-NULL" && filtered == 0) || (name == "S-INS" && halfTested == 0) {
				t.Fatalf("%s: the case lost its teeth", name)
			}
		}
	})
}

// TestLocalReportEqualsQueueReport: a report is a pure function of its
// spec, not of the front door that ran it. ExecuteTests and triage give
// the report PushTests → Worker.Do → FoldResults gives, field for field
// but the stage timings and the delivery accounting — CoverPairs and
// CoverSegments included — at full coverage (bench hunt's spec, seeds 3
// and 7), where nothing is adoptable, and at 40 S-INS-PAIR tests, where
// adoption is live. With Feedback on, Run's report equals that of a
// Campaign whose rounds a worker joined over TCP helped drain.
func TestLocalReportEqualsQueueReport(t *testing.T) {
	same := func(name string, local, queued *Report) {
		t.Helper()
		if len(local.Issues) == 0 || local.TrialsRun == 0 || local.CoverPairs == 0 || local.CoverSegments == 0 {
			t.Fatalf("%s: degenerate run: %d issues, %d pairs and %d segments in %d trials",
				name, len(local.Issues), local.CoverPairs, local.CoverSegments, local.TrialsRun)
		}
		t.Logf("%s: %d tests, %d trials, %d pairs, %d segments, %d issues", name,
			local.TestedTests, local.TrialsRun, local.CoverPairs, local.CoverSegments, len(local.Issues))
		queued.Distributed = nil
		if got, want := normalizeTimings(local), normalizeTimings(queued); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the local report differs from the queue-delivered one:\n%+v\nvs\n%+v", name, got, want)
		}
	}
	batch := func(name string, opts Options, adopting bool) {
		p, base, tests := campaignFixture(t, opts)
		if got := len(p.adoptable(tests)) > 0; got != adopting {
			t.Fatalf("%s: adoption live %v, want %v", name, got, adopting)
		}
		queued, _ := runCampaign(t, p, base, opts, tests, false)
		local := freshCopy(base)
		p.exploreUnits, p.segs = 0, cover.NewSegments()
		p.ExecuteTests(local, tests)
		p.TriageReport(local)
		same(name, local, queued)
	}
	for _, seed := range []int64{3, 7} {
		opts := huntOpts(kernel.V5_12_RC3, seed)
		opts.Trials = 12
		batch(fmt.Sprintf("full coverage, seed %d", seed), opts, false)
	}
	opts := huntOpts(kernel.V5_12_RC3, 3)
	opts.TestBudget, opts.Trials = 40, 12
	batch("40 tests", opts, true)

	opts.Feedback = true
	local, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	queued, joined := joinedFeedbackCampaign(t, opts)
	if local.FeedbackRounds < 2 || joined == 0 {
		t.Fatalf("feedback: %d rounds, %d jobs settled by the joined worker", local.FeedbackRounds, joined)
	}
	same("feedback", local, queued)
}

// joinedFeedbackCampaign runs opts as a Campaign over a TCP registry with
// a worker joined to its queue, which settles the first round's first job
// before the campaign's own executor starts, and returns the report and
// how many jobs the joined worker settled.
func joinedFeedbackCampaign(t *testing.T, opts Options) (*Report, int) {
	t.Helper()
	reg := queue.NewRegistry(queue.Options{})
	defer reg.Close()
	srv, err := queue.ServeRegistry(reg, "127.0.0.1:0", queue.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	gate := make(chan struct{})
	c, err := StartCampaign(CampaignSpec{
		Version: string(opts.Version), Method: opts.Method.Name, Seed: opts.Seed,
		FuzzBudget: opts.FuzzBudget, CorpusCap: opts.CorpusCap, TestBudget: opts.TestBudget,
		Trials: opts.Trials, Workers: opts.Workers, Feedback: true,
	}, CampaignEnv{Registry: reg, ExecGate: gate})
	if err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(time.Minute); c.Status().Expected == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(end) {
			t.Fatal("the campaign never pushed its jobs")
		}
	}
	cl, err := queue.DialOpts(srv.Addr(), queue.DialOptions{Queue: c.QueueName()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	w := NewWorker(nil, "joined")
	defer w.Close()
	done := make(chan int)
	go func() {
		n, err := w.Join(cl, 1, 10*time.Second)
		if err != nil {
			t.Error(err)
		}
		done <- n
	}()
	for end := time.Now().Add(time.Minute); reg.Get(c.QueueName()).Stats().Done == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(end) {
			t.Fatal("the joined worker never settled a job")
		}
	}
	close(gate)
	r, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return r, <-done
}
