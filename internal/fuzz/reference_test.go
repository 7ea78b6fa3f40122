package fuzz

import (
	"bytes"
	"testing"

	"snowboard/internal/corpus"
	"snowboard/internal/exec"
	"snowboard/internal/kernel"
	"snowboard/internal/par"
)

// The generator as it was before programs were built in candidates, kept
// as the oracle of TestGeneratorEqualsReference: every program is built in
// fresh storage, a mutant starts as a deep clone of its parent, and every
// descriptor-kind check resolves its call's literals into a new slice. It
// draws from the Generator's rng, so the two share one stream.

// retKindOf computes the descriptor kind a call produces.
func retKindOf(nr int, args []uint64) kernel.FDKind {
	spec := &kernel.Syscalls[nr]
	if spec.RetKind == nil {
		return kernel.FDNone
	}
	return spec.RetKind(args)
}

// literalArgs resolves constant argument values (resource refs become 0;
// only constant args determine descriptor kinds here).
func literalArgs(c corpus.Call) []uint64 {
	out := make([]uint64, len(c.Args))
	for i, a := range c.Args {
		if a.Kind == corpus.ConstArg {
			out[i] = a.Val
		}
	}
	return out
}

func refCreatorFor(g *Generator, kinds []kernel.FDKind) (corpus.Call, bool) {
	socket := func(domain, typ, proto uint64) corpus.Call {
		return corpus.Call{Nr: kernel.SysSocketNr, Args: []corpus.Arg{
			corpus.Const(domain), corpus.Const(typ), corpus.Const(proto),
		}}
	}
	open := func(path uint64) corpus.Call {
		return corpus.Call{Nr: kernel.SysOpenNr, Args: []corpus.Arg{
			corpus.Const(path), corpus.Const(0),
		}}
	}
	switch kinds[g.rng.Intn(len(kinds))] {
	case kernel.FDSockTCP:
		return socket(kernel.AFInet, kernel.SockStream, 0), true
	case kernel.FDSockUDP:
		return socket(kernel.AFInet, kernel.SockDgram, 0), true
	case kernel.FDSockRaw6:
		return socket(kernel.AFInet6, kernel.SockRaw, 0), true
	case kernel.FDSockPacket:
		return socket(kernel.AFPacket, kernel.SockRaw, 0), true
	case kernel.FDSockPPP:
		return socket(kernel.AFPppox, kernel.SockDgram, kernel.PxProtoOL2TP), true
	case kernel.FDBlk:
		return open(0), true
	case kernel.FDTTY:
		return open(1), true
	case kernel.FDSnd:
		return open(2), true
	case kernel.FDFile:
		return open(3 + uint64(g.rng.Intn(4))), true
	}
	return corpus.Call{}, false
}

func refAvailable(progCalls []corpus.Call, res []kernel.FDKind) []int {
	var out []int
	for i, c := range progCalls {
		k := retKindOf(c.Nr, literalArgs(c))
		if k == kernel.FDNone {
			continue
		}
		if len(res) == 0 {
			out = append(out, i)
			continue
		}
		for _, want := range res {
			if k == want {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

func refGenCall(g *Generator, calls []corpus.Call, nr int) []corpus.Call {
	spec := &kernel.Syscalls[nr]
	args := make([]corpus.Arg, len(spec.Args))
	for i, as := range spec.Args {
		switch as.Kind {
		case kernel.ArgConst:
			if len(as.Vals) == 0 {
				args[i] = corpus.Const(0)
			} else {
				args[i] = corpus.Const(as.Vals[g.rng.Intn(len(as.Vals))])
			}
		case kernel.ArgFD:
			avail := refAvailable(calls, as.Res)
			if len(avail) == 0 {
				creator, ok := refCreatorFor(g, orAnyFD(as.Res))
				if !ok {
					args[i] = corpus.Const(0)
					continue
				}
				calls = append(calls, creator)
				avail = []int{len(calls) - 1}
			}
			args[i] = corpus.Result(avail[g.rng.Intn(len(avail))])
		}
	}
	return append(calls, corpus.Call{Nr: nr, Args: args})
}

func refGenerate(g *Generator) *corpus.Prog {
	n := 1 + g.rng.Intn(g.MaxCalls)
	var calls []corpus.Call
	for len(calls) < n {
		calls = refGenCall(g, calls, g.rng.Intn(kernel.NumSyscalls))
	}
	return &corpus.Prog{Calls: calls}
}

func refResourceKindsOK(p *corpus.Prog) bool {
	for _, c := range p.Calls {
		spec := &kernel.Syscalls[c.Nr]
		for ai, a := range c.Args {
			if a.Kind != corpus.ResultArg {
				continue
			}
			kind := retKindOf(p.Calls[a.Ref].Nr, literalArgs(p.Calls[a.Ref]))
			if kind == kernel.FDNone {
				return false
			}
			res := spec.Args[ai].Res
			if len(res) == 0 {
				continue
			}
			ok := false
			for _, want := range res {
				if kind == want {
					ok = true
				}
			}
			if !ok {
				return false
			}
		}
	}
	return true
}

func refMutate(g *Generator, p *corpus.Prog) *corpus.Prog {
	for attempt := 0; attempt < 4; attempt++ {
		if q := refMutateOnce(g, p); refResourceKindsOK(q) {
			return q
		}
	}
	return p.Clone()
}

func refMutateOnce(g *Generator, p *corpus.Prog) *corpus.Prog {
	q := p.Clone()
	switch g.rng.Intn(3) {
	case 0:
		var idxs [][2]int
		for ci, c := range q.Calls {
			for ai, a := range c.Args {
				if a.Kind == corpus.ConstArg {
					idxs = append(idxs, [2]int{ci, ai})
				}
			}
		}
		if len(idxs) > 0 {
			pick := idxs[g.rng.Intn(len(idxs))]
			vals := kernel.Syscalls[q.Calls[pick[0]].Nr].Args[pick[1]].Vals
			if len(vals) > 0 {
				q.Calls[pick[0]].Args[pick[1]] = corpus.Const(vals[g.rng.Intn(len(vals))])
			}
		}
	case 1:
		if len(q.Calls) < 2*g.MaxCalls {
			q.Calls = refGenCall(g, q.Calls, g.rng.Intn(kernel.NumSyscalls))
		}
	case 2:
		if len(q.Calls) > 1 {
			q.Calls = q.Calls[:1+g.rng.Intn(len(q.Calls)-1)]
		}
	}
	return q
}

// sameProg reports whether a and b have the same calls, field for field
// (an empty argument list equals a nil one).
func sameProg(a, b *corpus.Prog) bool {
	if len(a.Calls) != len(b.Calls) {
		return false
	}
	for i, ca := range a.Calls {
		cb := b.Calls[i]
		if ca.Nr != cb.Nr || len(ca.Args) != len(cb.Args) {
			return false
		}
		for j, x := range ca.Args {
			if x != cb.Args[j] {
				return false
			}
		}
	}
	return true
}

// TestGeneratorEqualsReference holds the candidate-built generator to the
// clone-based one it replaced, over the draws a campaign makes: each case
// seeds both generators alike, mutates a program of a real campaign's
// corpus (or generates one, as a campaign's worker decides), and the
// program built in the slot must equal the reference's with both rngs left
// at the same position. A mutant shares calls with its parent, so the
// parent's encoding must not move; a slot is rebuilt for 32 consecutive
// candidates, each copied out as the fold copies what it keeps, and no
// copy may move either.
func TestGeneratorEqualsReference(t *testing.T) {
	env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	defer env.Close()
	parents := Campaign(env, 13, 1200, 0).Corpus.Progs
	if len(parents) < 20 {
		t.Fatalf("campaign kept %d programs", len(parents))
	}
	encs := make([][]byte, len(parents))
	for i, p := range parents {
		encs[i] = appendProg(nil, p)
	}

	const cases = 6000
	g, ref := NewGenerator(0), NewGenerator(0)
	var slot Candidate
	kept := make([]*corpus.Prog, 0, batchSize)
	keptEnc := make([][]byte, 0, batchSize)
	mutants := 0
	for k := 0; k < cases; k++ {
		seed := par.UnitSeed(int64(k/batchSize), par.StageFuzz, k%batchSize)
		g.rng.Seed(seed)
		ref.rng.Seed(seed)
		var want *corpus.Prog
		parent := -1
		if g.rng.Intn(3) != 0 {
			parent = g.rng.Intn(len(parents))
			ref.rng.Intn(3)
			ref.rng.Intn(len(parents))
			g.mutate(&slot, parents[parent])
			want = refMutate(ref, parents[parent])
			mutants++
		} else {
			ref.rng.Intn(3)
			g.generate(&slot)
			want = refGenerate(ref)
		}
		if !sameProg(&slot.Prog, want) {
			t.Fatalf("case %d (parent %d): slot built\n%s\nreference built\n%s", k, parent, &slot.Prog, want)
		}
		if a, b := g.rng.Int63(), ref.rng.Int63(); a != b {
			t.Fatalf("case %d: the generators' next draws differ (%d, %d)", k, a, b)
		}
		if parent >= 0 && !bytes.Equal(appendProg(nil, parents[parent]), encs[parent]) {
			t.Fatalf("case %d: mutating parent %d rewrote it", k, parent)
		}
		kept = append(kept, slot.Prog.Clone())
		keptEnc = append(keptEnc, appendProg(nil, &slot.Prog))
		if len(kept) == batchSize {
			for i, p := range kept {
				if !bytes.Equal(appendProg(nil, p), keptEnc[i]) {
					t.Fatalf("case %d: the copy of candidate %d moved when its slot was rebuilt", k, k-batchSize+1+i)
				}
			}
			kept, keptEnc = kept[:0], keptEnc[:0]
		}
	}
	for i, p := range parents {
		if !bytes.Equal(appendProg(nil, p), encs[i]) {
			t.Fatalf("corpus program %d was rewritten", i)
		}
	}
	if mutants < cases/2 {
		t.Fatalf("only %d of %d cases mutated", mutants, cases)
	}
}
