// Package fuzz is the sequential test generator Snowboard consumes — the
// stand-in for Syzkaller (§4.1.1). It generates syscall programs with
// syzkaller-style resource threading (r0, r1, …), mutates corpus programs,
// and selects tests by edge coverage, exporting the coverage metric that
// Snowboard uses "to select a subset of the generated tests that provide
// high coverage but low overlap of exercised behaviors".
package fuzz

import (
	"math/rand"

	"snowboard/internal/corpus"
	"snowboard/internal/kernel"
	"snowboard/internal/lazyrand"
)

// Generator produces random, structurally valid programs.
type Generator struct {
	rng      *rand.Rand
	MaxCalls int // maximum calls per generated program
}

// NewGenerator returns a deterministic generator for the seed.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: lazyrand.New(seed), MaxCalls: 6}
}

// retKindOf computes the descriptor kind a call produces.
func retKindOf(nr int, args []uint64) kernel.FDKind {
	spec := &kernel.Syscalls[nr]
	if spec.RetKind == nil {
		return kernel.FDNone
	}
	return spec.RetKind(args)
}

// creatorFor returns a call that produces a descriptor of one of the wanted
// kinds, with its literal arguments, or ok=false for kinds with no creator.
func (g *Generator) creatorFor(kinds []kernel.FDKind) (corpus.Call, kernel.FDKind, bool) {
	want := kinds[g.rng.Intn(len(kinds))]
	switch want {
	case kernel.FDSockTCP:
		return g.socketCall(kernel.AFInet, kernel.SockStream, 0), want, true
	case kernel.FDSockUDP:
		return g.socketCall(kernel.AFInet, kernel.SockDgram, 0), want, true
	case kernel.FDSockRaw6:
		return g.socketCall(kernel.AFInet6, kernel.SockRaw, 0), want, true
	case kernel.FDSockPacket:
		return g.socketCall(kernel.AFPacket, kernel.SockRaw, 0), want, true
	case kernel.FDSockPPP:
		return g.socketCall(kernel.AFPppox, kernel.SockDgram, kernel.PxProtoOL2TP), want, true
	case kernel.FDBlk:
		return g.openCall(0), want, true
	case kernel.FDTTY:
		return g.openCall(1), want, true
	case kernel.FDSnd:
		return g.openCall(2), want, true
	case kernel.FDFile:
		return g.openCall(3 + uint64(g.rng.Intn(4))), want, true
	}
	return corpus.Call{}, kernel.FDNone, false
}

func (g *Generator) socketCall(domain, typ, proto uint64) corpus.Call {
	return corpus.Call{Nr: kernel.SysSocketNr, Args: []corpus.Arg{
		corpus.Const(domain), corpus.Const(typ), corpus.Const(proto),
	}}
}

func (g *Generator) openCall(path uint64) corpus.Call {
	return corpus.Call{Nr: kernel.SysOpenNr, Args: []corpus.Arg{
		corpus.Const(path), corpus.Const(0),
	}}
}

// available lists the call indexes in prog producing a descriptor whose
// kind is acceptable for spec (nil spec.Res accepts any descriptor).
func available(progCalls []corpus.Call, res []kernel.FDKind) []int {
	var out []int
	for i, c := range progCalls {
		args := literalArgs(c)
		k := retKindOf(c.Nr, args)
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

// genCall generates one call of syscall nr appended to calls, inserting
// creator calls for missing resources. Returns the extended call list.
func (g *Generator) genCall(calls []corpus.Call, nr int) []corpus.Call {
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
			avail := available(calls, as.Res)
			if len(avail) == 0 {
				creator, _, ok := g.creatorFor(orAnyFD(as.Res))
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

func orAnyFD(res []kernel.FDKind) []kernel.FDKind {
	if len(res) > 0 {
		return res
	}
	return []kernel.FDKind{
		kernel.FDSockTCP, kernel.FDSockUDP, kernel.FDSockRaw6, kernel.FDSockPacket,
		kernel.FDSockPPP, kernel.FDFile, kernel.FDBlk, kernel.FDTTY, kernel.FDSnd,
	}
}

// Generate produces a fresh random program.
func (g *Generator) Generate() *corpus.Prog {
	n := 1 + g.rng.Intn(g.MaxCalls)
	var calls []corpus.Call
	for len(calls) < n {
		nr := g.rng.Intn(kernel.NumSyscalls)
		calls = g.genCall(calls, nr)
	}
	p := &corpus.Prog{Calls: calls}
	if err := p.Validate(); err != nil {
		panic("fuzz: generated invalid program: " + err.Error())
	}
	return p
}

// resourceKindsOK verifies that every resource reference still points at a
// call producing an acceptable descriptor kind — a tweak to a creator's
// arguments (e.g. open's path) can change what it produces.
func resourceKindsOK(p *corpus.Prog) bool {
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

// Mutate derives a variant of p: argument tweak, call insertion, or tail
// truncation (resource references always point backwards, so dropping a
// suffix keeps programs valid). Mutations that would break resource typing
// are retried; after a few failed attempts the original is returned
// unchanged.
func (g *Generator) Mutate(p *corpus.Prog) *corpus.Prog {
	for attempt := 0; attempt < 4; attempt++ {
		q := g.mutateOnce(p)
		if resourceKindsOK(q) {
			return q
		}
	}
	return p.Clone()
}

func (g *Generator) mutateOnce(p *corpus.Prog) *corpus.Prog {
	q := p.Clone()
	switch g.rng.Intn(3) {
	case 0: // tweak one constant argument
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
			spec := &kernel.Syscalls[q.Calls[pick[0]].Nr]
			vals := spec.Args[pick[1]].Vals
			if len(vals) > 0 {
				q.Calls[pick[0]].Args[pick[1]] = corpus.Const(vals[g.rng.Intn(len(vals))])
			}
		}
	case 1: // append a call
		if len(q.Calls) < 2*g.MaxCalls {
			q.Calls = g.genCall(q.Calls, g.rng.Intn(kernel.NumSyscalls))
		}
	case 2: // truncate the tail
		if len(q.Calls) > 1 {
			q.Calls = q.Calls[:1+g.rng.Intn(len(q.Calls)-1)]
		}
	}
	if err := q.Validate(); err != nil {
		panic("fuzz: mutation produced invalid program: " + err.Error())
	}
	return q
}
