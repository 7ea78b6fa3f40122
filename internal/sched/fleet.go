package sched

import (
	"snowboard/internal/cover"
	"snowboard/internal/exec"
	"snowboard/internal/par"
)

// Fleet fans concurrent-test exploration out across a pool of Explorers,
// one per worker environment. Each worker owns its Env, its own coverage
// accumulator, and its own post-mortem checker closure, so trials run
// without any cross-worker locking; outcomes come back indexed by test so
// the caller folds them in the same order a single Explorer would have
// produced. No front door runs one — stage 4 goes through core's queue
// (core.Pipeline.runBatch) — but bench/ times a bare exploration with it.
type Fleet struct {
	workers []*Explorer
	covs    []*cover.Coverage

	// merged, when non-nil, receives every worker's coverage after an
	// ExploreAll (the template's accumulator).
	merged *cover.Coverage
}

// NewFleet builds one Explorer per env, copied from template. Template
// fields (Trials, Mode, Detect, KnownPMCs, …) are shared — KnownPMCs is
// read-only during exploration — but each worker gets its own Env, a
// fresh coverage accumulator when the template carries one, its own
// scratch (a template that has already explored must not lend its tables to
// several goroutines), and its own Fsck bound to its env via fsck (nil for
// no post-mortem scan). The template's own Env and Fsck are ignored.
func NewFleet(template Explorer, envs []*exec.Env, fsck func(*exec.Env) []string) *Fleet {
	f := &Fleet{merged: template.Coverage}
	for _, env := range envs {
		x := template
		x.Env = env
		x.Coverage = nil
		x.Fsck = nil
		x.scratch = nil
		if template.Coverage != nil {
			x.Coverage = cover.New()
			f.covs = append(f.covs, x.Coverage)
		}
		if fsck != nil {
			env := env
			x.Fsck = func() []string { return fsck(env) }
		}
		f.workers = append(f.workers, &x)
	}
	return f
}

// ExploreAll explores tests[i] with base seed seeds[i] across the fleet
// and returns the outcomes in test order. Exploration of one test is
// entirely per-worker state, so outcomes are a pure function of
// (test, seed) and ExploreAll matches a serial loop over one Explorer —
// except Outcome.NewCoverPairs, which depends on which worker's
// accumulator saw a pair first; per-worker coverage is merged into the
// template's accumulator (in worker order) before returning.
func (f *Fleet) ExploreAll(tests []ConcurrentTest, seeds []int64) []Outcome {
	if len(seeds) != len(tests) {
		panic("sched: ExploreAll seeds/tests length mismatch")
	}
	outs := par.Map(len(f.workers), len(tests), func(w, i int) Outcome {
		x := f.workers[w]
		x.Seed = seeds[i]
		return x.Explore(tests[i])
	})
	if f.merged != nil {
		for _, cov := range f.covs {
			f.merged.Merge(cov)
		}
		// Fresh accumulators for the next batch so counts are not folded
		// in twice.
		for i, x := range f.workers {
			f.covs[i] = cover.New()
			x.Coverage = f.covs[i]
		}
	}
	return outs
}
