// Command sbprofile runs the first two Snowboard stages standalone: it
// builds (or loads) a sequential corpus, profiles every test from the boot
// snapshot, identifies PMCs, and prints profiling and clustering
// statistics — useful for inspecting what the analysis sees before
// spending execution budget.
//
// Usage:
//
//	sbprofile [-version 5.12-rc3] [-seed 1] [-fuzz 400] [-corpus 120]
//	          [-workers 0] [-state dir] [-top 10] [-dump-tests]
//	          [-http :0] [-progress 10s]
//
// With -state, the corpus is persisted into the content-addressed store
// rooted there (or loaded from it), so snowboard/sbqueue/sbd runs pointed
// at the same -state take it from there instead of re-fuzzing. Profiles
// and PMCs are recomputed on every run: that is cheaper than reading them
// back, so no state dir holds them.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"time"

	"snowboard"
	"snowboard/internal/cluster"
	"snowboard/internal/obs"
)

func main() {
	var (
		version  = flag.String("version", string(snowboard.V5_12_RC3), "simulated kernel version")
		seed     = flag.Int64("seed", 1, "deterministic seed")
		fuzzN    = flag.Int("fuzz", 400, "sequential fuzzing executions")
		corpusN  = flag.Int("corpus", 120, "corpus size cap")
		workers  = flag.Int("workers", 0, "parallel worker goroutines per stage (0 = one per CPU)")
		stateDir = flag.String("state", "", "artifact store directory: persist the corpus and resume from it (profiles and PMCs are always recomputed)")
		top      = flag.Int("top", 10, "hottest channels to print")
		dump     = flag.Bool("dump-tests", false, "print every corpus program")
		httpAddr = flag.String("http", "", "serve live introspection (/metrics, /progress, /events, /coverage, /campaign, /debug/pprof) on this address")
		progress = flag.Duration("progress", 10*time.Second, "interval between one-line progress reports on stderr (0 disables)")
	)
	flag.Parse()
	obs.Diag.SetPrefix("sbprofile")

	stopObs, err := obs.StartCLI("", *httpAddr, *progress)
	if err != nil {
		log.Fatal(err)
	}
	defer stopObs()

	kver, err := snowboard.ParseVersion(*version)
	if err != nil {
		log.Fatal(err)
	}
	opts := snowboard.DefaultOptions()
	opts.Version = kver
	opts.Seed = *seed
	opts.FuzzBudget = *fuzzN
	opts.CorpusCap = *corpusN
	opts.Workers = *workers
	opts.StateDir = *stateDir

	p, err := snowboard.OpenPipeline(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()
	r := p.NewReport()
	p.BuildCorpus(r)
	if err := p.ProfileAll(r); err != nil {
		log.Fatal(err)
	}
	p.IdentifyPMCs(r)

	fmt.Printf("kernel %s, seed %d\n", opts.Version, opts.Seed)
	fmt.Printf("corpus: %d tests selected from %d executions\n", r.CorpusSize, r.FuzzExecutions)
	fmt.Printf("syscall histogram: %v\n", p.Corpus.SyscallHistogram())
	// An exhausted fuzz budget selects no tests; 0/0 would print NaN.
	fmt.Printf("profiling: %d shared accesses in %v (%.0f accesses/test)\n",
		r.ProfiledAccesses, r.ProfileTime, float64(r.ProfiledAccesses)/float64(max(r.CorpusSize, 1)))
	fmt.Printf("PMCs: %d distinct keys, %d combinations, identified in %v\n",
		r.DistinctPMCs, r.PMCCombinations, r.IdentifyTime)
	fmt.Println()

	fmt.Printf("%-16s %9s\n", "Strategy", "Clusters")
	for _, s := range snowboard.Strategies() {
		cs := cluster.Clusters(p.PMCs, s)
		fmt.Printf("%-16s %9d\n", s.Name, len(cs))
	}

	// Hottest channels by pair combinations under S-CH.
	cs := cluster.Clusters(p.PMCs, cluster.SCh)
	sort.Slice(cs, func(i, j int) bool { return cs[i].Weight > cs[j].Weight })
	fmt.Printf("\nhottest %d channels (S-CH clusters by combination count):\n", *top)
	for i := 0; i < *top && i < len(cs); i++ {
		c := cs[i]
		fmt.Printf("  %8d  %s -> %s\n", c.Weight, c.PMCs[0].Write.Ins.Name(), c.PMCs[0].Read.Ins.Name())
	}

	if *dump {
		fmt.Println("\ncorpus programs:")
		for i, prog := range p.Corpus.Progs {
			fmt.Printf("--- test %d ---\n%s", i, prog)
		}
	}
}
