package core

import (
	"reflect"
	"testing"

	"snowboard/internal/cluster"
	"snowboard/internal/kernel"
	"snowboard/internal/pmc"
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
// in ExecuteTests' template. At bench `hunt`'s spec every S-INS-PAIR
// cluster has a test, for seeds 3–12 on both versions, so nothing is and
// the template carries no KnownPMCs (the claim that `hunt` runs no lookup
// rests on this). Under the pairing baselines every PMC is. At a partial
// budget exactly the PMCs in no tested cluster are: those of untested
// clusters and those the strategy filters out; under S-INS a PMC only when
// both its clusters are untested. A cluster is tested when a test hints one
// of its members.
func TestAdoptableSkipsPlannedClusters(t *testing.T) {
	t.Run("hunt", func(t *testing.T) {
		for _, v := range []kernel.Version{kernel.V5_3_10, kernel.V5_12_RC3} {
			for seed := int64(3); seed <= 12; seed++ {
				p, r, tests := campaignFixture(t, huntOpts(v, seed))
				if x := p.localExplorer(tests, nil); x.KnownPMCs != nil || x.Planned != nil {
					t.Errorf("%s seed %d: %d tests for %d clusters leave %d of %d PMCs adoptable",
						v, seed, len(tests), r.ExemplarPMCs, p.PMCs.Len()-x.Planned.Len(), p.PMCs.Len())
				}
			}
		}
	})
	t.Run("pairing", func(t *testing.T) {
		for _, name := range []string{"Random pairing", "Duplicate pairing"} {
			opts := triageOpts(3)
			opts.Method, _ = MethodByName(name)
			p, _, tests := campaignFixture(t, opts)
			if x := p.localExplorer(tests, nil); x.KnownPMCs != p.PMCs || x.Planned != nil {
				t.Errorf("%s: the template adopts from %p less %d planned, not every PMC of %p", name, x.KnownPMCs, x.Planned.Len(), p.PMCs)
			}
		}
	})
	t.Run("partial", func(t *testing.T) {
		for _, name := range []string{"S-INS-PAIR", "S-CH-NULL", "S-INS", "Random S-INS-PAIR"} {
			opts := triageOpts(3)
			opts.Method, _ = MethodByName(name)
			opts.TestBudget = 40
			p, _, tests := campaignFixture(t, opts)
			x := p.localExplorer(tests, nil)
			if x.KnownPMCs != p.PMCs {
				t.Fatalf("%s: %d tests leave nothing adoptable", name, len(tests))
			}
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
				if id, _ := p.PMCs.ID(q); x.Planned.Has(id) == want {
					t.Fatalf("%s: %v (clusters tested: %v) adoptable %v, want %v", name, q, clusters[q], !want, want)
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

// TestLocalReportEqualsQueueReport: on a full-coverage spec, where nothing
// is adoptable, ExecuteTests and triage give the report that PushTests →
// Worker.Do → FoldResults gives, field for field, except the two coverage
// counts only the local template walks for and the stage timings.
func TestLocalReportEqualsQueueReport(t *testing.T) {
	for _, seed := range []int64{3, 7} {
		opts := huntOpts(kernel.V5_12_RC3, seed)
		opts.Trials = 12
		p, base, tests := campaignFixture(t, opts)
		queued, _ := runCampaign(t, p, base, opts, tests, false)
		local := freshCopy(base)
		p.exploreUnits = 0
		p.ExecuteTests(local, tests)
		p.TriageReport(local)
		if len(local.Issues) == 0 || local.TrialsRun == 0 {
			t.Fatalf("seed %d: degenerate run: %d issues in %d trials", seed, len(local.Issues), local.TrialsRun)
		}
		queued.Distributed = nil
		for _, r := range []*Report{local, queued} {
			r.CoverPairs, r.CoverSegments = 0, 0
		}
		if got, want := normalizeTimings(local), normalizeTimings(queued); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: the local report differs from the queue-delivered one:\n%+v\nvs\n%+v", seed, got, want)
		}
	}
}
