package fuzz

import (
	"encoding/binary"
	"iter"
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
	Executed  int // candidates folded, whether run or answered by the memo
	Selected  int // programs kept for new coverage
	Crashes   int // candidates that crashed, hung or deadlocked the kernel (rare; discarded)
	Repeats   int // candidates answered by the memo, not run: Executed − Repeats guest runs
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
//
// Every run starts from the same snapshot, so a candidate equal to one an
// earlier round folded is not run again: it takes that run's verdict from
// the campaign's memo. Its edges are already in cov (or it crashed), so the
// result is the one running it would give.
//
// Unit i of every round is built in the campaign's i-th Candidate, so a
// candidate the fold throws away allocates nothing; the fold copies out
// only the programs the corpus keeps.
func CampaignSharded(envs []*exec.Env, seed int64, budget, maxKeep int) CampaignResult {
	cov := cover.NewEdges()
	seen := memo{at: make(map[uint64]uint64)}
	out := CampaignResult{Corpus: corpus.NewCorpus()}
	traces := make([]trace.Trace, len(envs))
	gens := make([]*Generator, len(envs))
	for w := range gens {
		gens[w] = NewGenerator(0)
	}
	slots := make([]Candidate, batchSize)

	type unit struct {
		prog    *corpus.Prog // in the unit's slot, rebuilt next round
		edges   []uint64     // edge keys cov lacked at round start; nil for most
		hash    uint64       // progHash(prog)
		crashed bool
		repeat  bool // answered by seen, not run
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
			c := &slots[i]
			// Mostly mutate existing corpus entries once one exists, like
			// Syzkaller; otherwise generate fresh.
			if len(snapshot) > 0 && g.rng.Intn(3) != 0 {
				g.mutate(c, snapshot[g.rng.Intn(len(snapshot))])
			} else {
				g.generate(c)
			}
			p := &c.Prog
			// seen, like cov, is written only by the fold below, after
			// every worker has returned, so probing it needs no lock. A
			// repeat within this round is not in it yet and runs.
			h := progHash(p)
			if crashed, ok := seen.verdict(h, p); ok {
				return unit{prog: p, hash: h, crashed: crashed, repeat: true}
			}
			env, tr := envs[w], &traces[w]
			res := env.RunSequential(p, tr)
			env.M.SetTrace(nil)
			if res.Crashed() || res.Hung || res.Deadlock {
				// A sequential test should not crash the kernel; such
				// programs are discarded (and would be reported as
				// sequential bugs).
				return unit{prog: p, hash: h, crashed: true}
			}
			return unit{prog: p, hash: h, edges: cov.Missing(tr, nil)}
		})
		full := false
		for _, u := range units {
			out.Executed++
			mExecs.Inc()
			if u.repeat {
				out.Repeats++
			} else {
				seen.add(u.hash, u.prog, u.crashed)
			}
			if u.crashed {
				out.Crashes++
				mCrashes.Inc()
				continue
			}
			if n := cov.Add(u.edges); n > 0 {
				// u.prog lives in its slot until the next round, so the
				// corpus keeps a copy. Add never refuses it: a program
				// kept before ran from the same snapshot, so its edges
				// are in cov and this one adds none.
				if out.Corpus.Add(u.prog.Clone()) {
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

// memo is a campaign's record of every distinct program it has folded and
// whether that program crashed. Programs are kept as their encodings
// (appendProg), back to back in chunks of memoChunk bytes, and found by
// progHash. An entry is 26–36 B of map and 42 B of encoding on average
// (110 B the largest of 200,000 generated and mutated programs), so a
// campaign of core.MaxFuzzBudget (2²⁰) candidates that never repeats one
// holds ~80 MiB, 150 MiB at most; it is released when the campaign returns.
type memo struct {
	at  map[uint64]uint64 // progHash → chunk<<32 | offset<<1 | crashed
	enc [][]byte
}

// memoChunk is the size of one chunk of encodings. Fixed chunks, not one
// growing arena, so that the bytes a campaign allocates for its memo are
// about the bytes it keeps.
const memoChunk = 4096

// verdict reports whether p was folded before and, if so, whether it
// crashed. A hash hit counts only when the encoding it points at is p's.
func (m *memo) verdict(h uint64, p *corpus.Prog) (crashed, ok bool) {
	v, hit := m.at[h]
	if !hit || !encodes(m.enc[v>>32][uint32(v)>>1:], p) {
		return false, false
	}
	return v&1 == 1, true
}

// add remembers p's verdict. A program whose hash a different one already
// holds is not remembered: it runs each time, which costs time, not
// exactness.
func (m *memo) add(h uint64, p *corpus.Prog, crashed bool) {
	if _, taken := m.at[h]; taken {
		return
	}
	// A chunk is closed once it has under 256 B of room, over twice the
	// largest program seen; a larger one reallocates the chunk, which
	// offsets into it survive.
	if n := len(m.enc); n == 0 || cap(m.enc[n-1])-len(m.enc[n-1]) < 256 {
		m.enc = append(m.enc, make([]byte, 0, memoChunk))
	}
	c := len(m.enc) - 1
	v := uint64(c)<<32 | uint64(len(m.enc[c]))<<1
	if crashed {
		v |= 1
	}
	m.at[h] = v
	m.enc[c] = appendProg(m.enc[c], p)
}

// fields yields what identifies p: its call count, then each call's number
// and argument count and each argument's kind, value and reference.
func fields(p *corpus.Prog) iter.Seq[uint64] {
	return func(yield func(uint64) bool) {
		if !yield(uint64(len(p.Calls))) {
			return
		}
		for _, c := range p.Calls {
			if !yield(uint64(c.Nr)) || !yield(uint64(len(c.Args))) {
				return
			}
			for _, a := range c.Args {
				if !yield(uint64(a.Kind)) || !yield(a.Val) || !yield(uint64(a.Ref)) {
					return
				}
			}
		}
	}
}

// progHash hashes p's fields with one multiply each, cheap enough for every
// candidate (Prog.Hash marshals JSON). The map scrambles the key again, and
// a collision only costs the later program its memo entry.
func progHash(p *corpus.Prog) uint64 {
	var h uint64
	for f := range fields(p) {
		h = (h ^ f) * 0x9E3779B97F4A7C15
	}
	return h
}

// appendProg appends p's fields as uvarints. The call and argument counts
// make the encoding self-delimiting.
func appendProg(b []byte, p *corpus.Prog) []byte {
	for f := range fields(p) {
		b = binary.AppendUvarint(b, f)
	}
	return b
}

// encodes reports whether enc begins with p's encoding.
func encodes(enc []byte, p *corpus.Prog) bool {
	for f := range fields(p) {
		v, n := binary.Uvarint(enc)
		if n <= 0 || v != f {
			return false
		}
		enc = enc[n:]
	}
	return true
}
