package fuzz

import (
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
	return CampaignShardedFunc([]*exec.Env{env}, seed, budget, maxKeep, nil)
}

// batchSize is the number of candidate programs produced per
// synchronization round of a campaign. Candidates within a round are
// generated against the round-start corpus and executed in parallel; the
// coverage/selection fold between rounds stays sequential in unit order.
// The size is fixed — never derived from the worker count — so the
// candidate stream, and therefore the resulting corpus, is identical for
// any number of workers.
const batchSize = 32

// RoundFunc observes one synchronization round of a sharded campaign:
// round is the 0-based round index and admitted lists the programs the
// round added to the corpus, in admission order. Because admission is
// in-order, the concatenation of all admitted slices IS the final corpus —
// which is what lets a streaming consumer (core.StreamCampaign) profile
// and identify each round's programs while the next round fuzzes, and
// still end up with the exact corpus a staged run builds.
//
// The callback runs on the coordinating goroutine between rounds; it must
// not mutate the campaign's corpus.
type RoundFunc func(round int, admitted []*corpus.Prog)

// CampaignShardedFunc is Campaign fanned out across len(envs) worker
// environments (one goroutine per env). Each candidate program reseeds its
// shard's generator with par.UnitSeed(seed, StageFuzz, unit), where unit is the
// candidate's global index in the campaign — not a per-worker counter — so
// results are bit-identical to a single env's. fn, when non-nil, observes
// each round: it is invoked after every round's selection fold — including
// the final, possibly truncated round when the corpus cap fills mid-fold —
// so it sees every admitted program exactly once.
func CampaignShardedFunc(envs []*exec.Env, seed int64, budget, maxKeep int, fn RoundFunc) CampaignResult {
	cov := cover.NewEdges()
	out := CampaignResult{Corpus: corpus.NewCorpus()}
	traces := make([]trace.Trace, len(envs))
	gens := make([]*Generator, len(envs))
	for w := range gens {
		gens[w] = NewGenerator(0)
	}

	type unit struct {
		prog    *corpus.Prog
		edges   *cover.Edges
		crashed bool
	}
	round := 0
	for out.Executed < budget {
		n := budget - out.Executed
		if n > batchSize {
			n = batchSize
		}
		// Mutation picks reference the round-start corpus, which every
		// worker sees identically.
		snapshot := append([]*corpus.Prog(nil), out.Corpus.Progs...)
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
			e := cover.NewEdges()
			e.AddTrace(tr)
			return unit{prog: p, edges: e}
		})
		full := false
		var admitted []*corpus.Prog
		for _, u := range units {
			out.Executed++
			mExecs.Inc()
			if u.crashed {
				out.Crashes++
				mCrashes.Inc()
				continue
			}
			if n := cov.Merge(u.edges); n > 0 {
				if out.Corpus.Add(u.prog) {
					out.Selected++
					mSelected.Inc()
					mCorpus.Set(int64(out.Corpus.Len()))
					obs.Emit(obs.EvCoverNew, obs.A("edges", n),
						obs.A("corpus", out.Corpus.Len()))
					if fn != nil {
						admitted = append(admitted, u.prog)
					}
				}
			}
			if maxKeep > 0 && out.Corpus.Len() >= maxKeep {
				full = true
				break
			}
		}
		if fn != nil {
			fn(round, admitted)
		}
		round++
		if full {
			break
		}
	}
	out.EdgeCount = cov.Len()
	mEdges.Set(int64(out.EdgeCount))
	return out
}
