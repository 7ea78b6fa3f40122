package fuzz

import (
	"encoding/binary"
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
//
// Guest runs are Executed − Repeats − Prefixes, plus one capture per
// program the corpus keeps (Selected).
type CampaignResult struct {
	Corpus    *corpus.Corpus
	Executed  int // candidates folded, whether run, resumed or answered without a run
	Selected  int // programs kept for new coverage
	Crashes   int // candidates that crashed, hung or deadlocked the kernel (rare; discarded)
	Repeats   int // candidates answered by the memo, not run
	EdgeCount int

	Resumed      int // candidates run from a call boundary of their parent, not from the first call
	Prefixes     int // candidates that are a prefix of their parent, answered without a run
	StepsSkipped int // guest steps the resumes and prefixes did not run
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
// Every run is also deterministic, so a mutant that shares its first k
// calls with its parent repeats the parent's run of them exactly. The fold
// captures each program the corpus keeps once, on envs[0], into that Env's
// exec.States, and a mutant resumes at its parent's latest call boundary
// within the calls they share where the thread was at rest
// (exec.Env.Resume): it runs only the rest, and probes only the rest's
// edges and the one into it, as the parent's are all in cov. A mutant that
// is a prefix of its parent, which ran whole without a crash, folds as "no
// crash, no new edge" without a run.
//
// Unit i of every round is built in the campaign's i-th Candidate, so a
// candidate the fold throws away allocates nothing; the fold copies out
// only the programs the corpus keeps.
func CampaignSharded(envs []*exec.Env, seed int64, budget, maxKeep int) CampaignResult {
	cov := cover.NewEdges()
	seen := memo{at: make(map[uint64]uint64)}
	states := envs[0].States() // program i's are those of out.Corpus.Progs[i]
	states.Reset()
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
		skipped int32        // guest steps of the whole run not run: those before a resume's boundary, or a prefix's all
		crashed bool
		repeat  bool // answered by seen, not run
		prefix  bool // a prefix of its parent, not run
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
			parent := -1
			if len(snapshot) > 0 && g.rng.Intn(3) != 0 {
				parent = g.rng.Intn(len(snapshot))
				g.mutate(c, snapshot[parent])
			} else {
				g.generate(c)
			}
			p := &c.Prog
			// seen, cov and states are written only by the fold below,
			// after every worker has returned, so reading them needs no
			// lock. A repeat within this round is not in seen yet and runs.
			h := progHash(p)
			if crashed, ok := seen.verdict(h, p); ok {
				return unit{prog: p, hash: h, crashed: crashed, repeat: true}
			}
			var from exec.State // the first call: a run from the snapshot
			if parent >= 0 {
				shared := sharedCalls(p, snapshot[parent])
				if shared == len(p.Calls) {
					return unit{prog: p, hash: h, prefix: true, skipped: int32(states.RunSteps(parent, shared))}
				}
				from = states.Latest(parent, shared)
			}
			env, tr := envs[w], &traces[w]
			res := env.Resume(p, from, tr)
			env.M.SetTrace(nil)
			u := unit{prog: p, hash: h, skipped: int32(from.Steps)}
			if res.Crashed() || res.Hung || res.Deadlock {
				// A sequential test should not crash the kernel; such
				// programs are discarded (and would be reported as
				// sequential bugs).
				u.crashed = true
				return u
			}
			u.edges = cov.MissingAfter(from.Last, tr, nil)
			return u
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
			out.StepsSkipped += int(u.skipped)
			switch {
			case u.prefix:
				out.Prefixes++
			case u.skipped > 0:
				out.Resumed++
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
				if kept := u.prog.Clone(); out.Corpus.Add(kept) {
					envs[0].Capture(kept, &traces[0])
					envs[0].M.SetTrace(nil)
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

// sharedCalls returns how many leading calls p shares with its parent.
func sharedCalls(p, parent *corpus.Prog) int {
	n := min(len(p.Calls), len(parent.Calls))
	for i := range n {
		a, b := &p.Calls[i], &parent.Calls[i]
		if a.Nr != b.Nr || !slices.Equal(a.Args, b.Args) {
			return i
		}
	}
	return n
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

// What identifies a program, in order: its call count, then each call's
// number and argument count and each argument's kind, value and reference.
// progHash, appendProg and encodes walk these fields alike.

// progHash hashes p's fields with one multiply each, cheap enough for every
// candidate (Prog.Hash marshals JSON). The map scrambles the key again, and
// a collision only costs the later program its memo entry.
func progHash(p *corpus.Prog) uint64 {
	mix := func(h, f uint64) uint64 { return (h ^ f) * 0x9E3779B97F4A7C15 }
	h := mix(0, uint64(len(p.Calls)))
	for _, c := range p.Calls {
		h = mix(mix(h, uint64(c.Nr)), uint64(len(c.Args)))
		for _, a := range c.Args {
			h = mix(mix(mix(h, uint64(a.Kind)), a.Val), uint64(a.Ref))
		}
	}
	return h
}

// appendProg appends p's fields as uvarints. The call and argument counts
// make the encoding self-delimiting.
func appendProg(b []byte, p *corpus.Prog) []byte {
	b = binary.AppendUvarint(b, uint64(len(p.Calls)))
	for _, c := range p.Calls {
		b = binary.AppendUvarint(b, uint64(c.Nr))
		b = binary.AppendUvarint(b, uint64(len(c.Args)))
		for _, a := range c.Args {
			b = binary.AppendUvarint(b, uint64(a.Kind))
			b = binary.AppendUvarint(b, a.Val)
			b = binary.AppendUvarint(b, uint64(a.Ref))
		}
	}
	return b
}

// encodes reports whether enc begins with p's encoding.
func encodes(enc []byte, p *corpus.Prog) bool {
	next := func(f uint64) bool {
		v, n := binary.Uvarint(enc)
		enc = enc[max(n, 0):]
		return n > 0 && v == f
	}
	if !next(uint64(len(p.Calls))) {
		return false
	}
	for _, c := range p.Calls {
		if !next(uint64(c.Nr)) || !next(uint64(len(c.Args))) {
			return false
		}
		for _, a := range c.Args {
			if !next(uint64(a.Kind)) || !next(a.Val) || !next(uint64(a.Ref)) {
				return false
			}
		}
	}
	return true
}
