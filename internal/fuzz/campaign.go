package fuzz

import (
	"slices"

	"snowboard/internal/corpus"
	"snowboard/internal/cover"
	"snowboard/internal/exec"
	"snowboard/internal/obs"
	"snowboard/internal/par"
	"snowboard/internal/trace"
)

// Campaign metrics (process-wide registry, resolved once).
var (
	mExecs    = obs.C(obs.MFuzzExecs)
	mCrashes  = obs.C(obs.MFuzzCrashes)
	mSelected = obs.C(obs.MFuzzSelected)
	mCorpus   = obs.G(obs.MFuzzCorpus)
	mEdges    = obs.G(obs.MFuzzEdges)
)

// CampaignResult is the outcome of a fuzzing campaign: the selected corpus
// plus the statistics Snowboard reports.
type CampaignResult struct {
	Corpus    *corpus.Corpus
	Executed  int // programs executed (including rejected duplicates)
	Selected  int // programs kept for new coverage
	Crashes   int // sequential executions that crashed the kernel (rare; discarded)
	EdgeCount int
}

// Campaign runs a coverage-guided fuzzing campaign of budget executions on
// env, seeded deterministically, and returns the selected corpus. It
// mirrors the paper's setup: the generator produces a large redundant
// stream; only tests contributing new edge coverage are kept (§4.1.1).
func Campaign(env *exec.Env, seed int64, budget, maxKeep int) CampaignResult {
	return CampaignSharded([]*exec.Env{env}, seed, budget, maxKeep)
}

// batchSize is the number of candidate programs produced per
// synchronization round of a campaign. Candidates within a round are
// generated against the round-start corpus and executed in parallel; the
// coverage/selection fold between rounds stays sequential in unit order.
// The size is fixed — never derived from the worker count — so the
// candidate stream, and therefore the resulting corpus, is identical for
// any number of workers.
const batchSize = 32

// CampaignSharded is Campaign fanned out across len(envs) worker
// environments (one goroutine per env). Each candidate program reseeds its
// shard's generator with par.UnitSeed(seed, StageFuzz, unit), where unit is the
// candidate's global index in the campaign — not a per-worker counter — so
// results are bit-identical to a single env's.
func CampaignSharded(envs []*exec.Env, seed int64, budget, maxKeep int) CampaignResult {
	cov := cover.NewEdges()
	out := CampaignResult{Corpus: corpus.NewCorpus()}
	traces := make([]trace.Trace, len(envs))
	gens := make([]*Generator, len(envs))
	for w := range gens {
		gens[w] = NewGenerator(0)
	}

	type unit struct {
		prog    *corpus.Prog
		edges   []uint64 // edge keys cov lacked at round start; nil for most
		crashed bool
	}
	for out.Executed < budget {
		n := budget - out.Executed
		if n > batchSize {
			n = batchSize
		}
		// Mutation picks reference the round-start corpus, which every
		// worker sees identically: the fold appends past the clipped view.
		snapshot := slices.Clip(out.Corpus.Progs)
		base := out.Executed
		units := par.Map(len(envs), n, func(w, i int) unit {
			g := gens[w]
			g.rng.Seed(par.UnitSeed(seed, par.StageFuzz, base+i))
			var p *corpus.Prog
			// Mostly mutate existing corpus entries once one exists, like
			// Syzkaller; otherwise generate fresh.
			if len(snapshot) > 0 && g.rng.Intn(3) != 0 {
				p = g.Mutate(snapshot[g.rng.Intn(len(snapshot))])
			} else {
				p = g.Generate()
			}
			env, tr := envs[w], &traces[w]
			res := env.RunSequential(p, tr)
			env.M.SetTrace(nil)
			if res.Crashed() || res.Hung || res.Deadlock {
				// A sequential test should not crash the kernel; such
				// programs are discarded (and would be reported as
				// sequential bugs).
				return unit{prog: p, crashed: true}
			}
			// cov is written only by the fold below, after every worker
			// has returned, so probing it here needs no lock.
			return unit{prog: p, edges: cov.Missing(tr, nil)}
		})
		full := false
		for _, u := range units {
			out.Executed++
			mExecs.Inc()
			if u.crashed {
				out.Crashes++
				mCrashes.Inc()
				continue
			}
			if n := cov.Add(u.edges); n > 0 {
				if out.Corpus.Add(u.prog) {
					out.Selected++
					mSelected.Inc()
					mCorpus.Set(int64(out.Corpus.Len()))
					obs.Emit(obs.EvCoverNew, obs.A("edges", n),
						obs.A("corpus", out.Corpus.Len()))
				}
			}
			if maxKeep > 0 && out.Corpus.Len() >= maxKeep {
				full = true
				break
			}
		}
		if full {
			break
		}
	}
	out.EdgeCount = cov.Len()
	mEdges.Set(int64(out.EdgeCount))
	return out
}
