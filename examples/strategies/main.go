// strategies reproduces the shape of the paper's Table 3: every concurrent
// test generation method — the eight Table 1 clustering strategies, Random
// S-INS-PAIR, and the two non-PMC baselines — runs with the same budget on
// the same profiled corpus, and the bug yield per method is compared.
//
// The paper's headline finding should be visible in the output: S-INS and
// S-INS-PAIR find the most issues, S-FULL wastes its budget on
// near-identical channels and finds only the ubiquitous benign slab race
// (#13), and #13 is found by every method including the baselines.
package main

import (
	"fmt"
	"log"
	"sort"

	"snowboard"
)

func main() {
	base := snowboard.DefaultOptions()
	base.Version = snowboard.V5_12_RC3
	base.Seed = 7
	base.FuzzBudget = 600
	base.CorpusCap = 150
	base.TestBudget = 60
	base.Trials = 12

	// Build corpus, profiles, and the PMC database once; all methods share
	// them, as the paper shares machine C's profiling output.
	shared := snowboard.NewPipeline(base)
	defer shared.Close()
	warm := shared.NewReport()
	shared.BuildCorpus(warm)
	if err := shared.ProfileAll(warm); err != nil {
		log.Fatal(err)
	}
	shared.IdentifyPMCs(warm)
	fmt.Printf("shared corpus: %d tests, %d PMC keys, %d combinations\n\n",
		warm.CorpusSize, warm.DistinctPMCs, warm.PMCCombinations)

	fmt.Printf("%-20s %10s %8s %10s  %s\n", "Method", "Exemplars", "Tested", "Exercised", "Issues (found after N tests)")
	for _, m := range snowboard.Methods() {
		opts := base
		opts.Method = m
		p := snowboard.NewPipeline(opts)
		p.SetCorpus(shared.Corpus)
		p.SetProfiles(shared.Profiles)
		p.SetPMCs(shared.PMCs)
		r := p.NewReport()
		tests := p.GenerateTests(r, opts.TestBudget)
		p.ExecuteTests(r, tests)
		p.Close()

		ids := r.BugIDs()
		sort.Ints(ids)
		row := ""
		for i, id := range ids {
			if i > 0 {
				row += ", "
			}
			row += fmt.Sprintf("#%d(%d)", id, r.Issues[id].TestIndex)
		}
		if row == "" {
			row = "-"
		}
		fmt.Printf("%-20s %10d %8d %10d  %s\n", m.Name, r.ExemplarPMCs, r.TestedTests, r.Exercised, row)
	}
}
