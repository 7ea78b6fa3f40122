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

	// Scratch reused by every build: a call's literal argument values
	// (retKind), the calls producing an acceptable descriptor (available),
	// the arguments of the call genCall is drawing and the (call, argument)
	// positions of a program's constants (mutateOnce).
	lits   []uint64
	avail  []int
	args   []corpus.Arg
	consts [][2]int
}

// NewGenerator returns a deterministic generator for the seed.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: lazyrand.New(seed), MaxCalls: 6}
}

// Candidate is storage a program is built in, again and again: the
// program's call list and an arena for the arguments of the calls built
// here. A mutant's calls that the mutation does not rewrite are its
// parent's, shared, not copied. What was built in a candidate lives until
// the next build in it; Prog.Clone copies out a program that must outlive
// that.
type Candidate struct {
	Prog corpus.Prog
	args []corpus.Arg
}

// reset empties the candidate for the next build.
func (c *Candidate) reset() {
	c.Prog.Calls = c.Prog.Calls[:0]
	c.args = c.args[:0]
}

// push appends a call of syscall nr with a copy of args from the arena.
func (c *Candidate) push(nr int, args ...corpus.Arg) {
	start := len(c.args)
	c.args = append(c.args, args...)
	end := len(c.args)
	c.Prog.Calls = append(c.Prog.Calls, corpus.Call{Nr: nr, Args: c.args[start:end:end]})
}

// retKind computes the descriptor kind call c produces. Only constant
// arguments determine it; a resource reference counts as 0.
func (g *Generator) retKind(c corpus.Call) kernel.FDKind {
	spec := &kernel.Syscalls[c.Nr]
	if spec.RetKind == nil {
		return kernel.FDNone
	}
	g.lits = g.lits[:0]
	for _, a := range c.Args {
		var v uint64
		if a.Kind == corpus.ConstArg {
			v = a.Val
		}
		g.lits = append(g.lits, v)
	}
	return spec.RetKind(g.lits)
}

// pushCreator appends to c a call that produces a descriptor of one of the
// wanted kinds, or reports false for a kind with no creator.
func (g *Generator) pushCreator(c *Candidate, kinds []kernel.FDKind) bool {
	switch kinds[g.rng.Intn(len(kinds))] {
	case kernel.FDSockTCP:
		pushSocket(c, kernel.AFInet, kernel.SockStream, 0)
	case kernel.FDSockUDP:
		pushSocket(c, kernel.AFInet, kernel.SockDgram, 0)
	case kernel.FDSockRaw6:
		pushSocket(c, kernel.AFInet6, kernel.SockRaw, 0)
	case kernel.FDSockPacket:
		pushSocket(c, kernel.AFPacket, kernel.SockRaw, 0)
	case kernel.FDSockPPP:
		pushSocket(c, kernel.AFPppox, kernel.SockDgram, kernel.PxProtoOL2TP)
	case kernel.FDBlk:
		pushOpen(c, 0)
	case kernel.FDTTY:
		pushOpen(c, 1)
	case kernel.FDSnd:
		pushOpen(c, 2)
	case kernel.FDFile:
		pushOpen(c, 3+uint64(g.rng.Intn(4)))
	default:
		return false
	}
	return true
}

func pushSocket(c *Candidate, domain, typ, proto uint64) {
	c.push(kernel.SysSocketNr, corpus.Const(domain), corpus.Const(typ), corpus.Const(proto))
}

func pushOpen(c *Candidate, path uint64) {
	c.push(kernel.SysOpenNr, corpus.Const(path), corpus.Const(0))
}

// available lists the call indexes in calls producing a descriptor whose
// kind is acceptable for res (an empty res accepts any descriptor). The
// list is generator scratch, valid until the next call.
func (g *Generator) available(calls []corpus.Call, res []kernel.FDKind) []int {
	g.avail = g.avail[:0]
	for i, c := range calls {
		k := g.retKind(c)
		if k == kernel.FDNone {
			continue
		}
		if len(res) == 0 {
			g.avail = append(g.avail, i)
			continue
		}
		for _, want := range res {
			if k == want {
				g.avail = append(g.avail, i)
				break
			}
		}
	}
	return g.avail
}

// genCall appends one call of syscall nr to c, inserting creator calls for
// missing resources before it.
func (g *Generator) genCall(c *Candidate, nr int) {
	spec := &kernel.Syscalls[nr]
	// The arguments are drawn into scratch: a creator inserted for one of
	// them goes into the arena first.
	g.args = g.args[:0]
	for _, as := range spec.Args {
		switch as.Kind {
		case kernel.ArgConst:
			if len(as.Vals) == 0 {
				g.args = append(g.args, corpus.Const(0))
			} else {
				g.args = append(g.args, corpus.Const(as.Vals[g.rng.Intn(len(as.Vals))]))
			}
		case kernel.ArgFD:
			avail := g.available(c.Prog.Calls, as.Res)
			if len(avail) == 0 {
				if !g.pushCreator(c, orAnyFD(as.Res)) {
					g.args = append(g.args, corpus.Const(0))
					continue
				}
				// The pick among the one creator still draws: the
				// candidate stream depends on it.
				g.avail = append(g.avail[:0], len(c.Prog.Calls)-1)
				avail = g.avail
			}
			g.args = append(g.args, corpus.Result(avail[g.rng.Intn(len(avail))]))
		}
	}
	c.push(nr, g.args...)
}

// anyFD is every descriptor kind some call creates.
var anyFD = []kernel.FDKind{
	kernel.FDSockTCP, kernel.FDSockUDP, kernel.FDSockRaw6, kernel.FDSockPacket,
	kernel.FDSockPPP, kernel.FDFile, kernel.FDBlk, kernel.FDTTY, kernel.FDSnd,
}

func orAnyFD(res []kernel.FDKind) []kernel.FDKind {
	if len(res) > 0 {
		return res
	}
	return anyFD
}

// Generate produces a fresh random program in fresh storage.
func (g *Generator) Generate() *corpus.Prog {
	var c Candidate
	g.generate(&c)
	return &c.Prog
}

// generate builds a fresh random program in c.
func (g *Generator) generate(c *Candidate) {
	c.reset()
	n := 1 + g.rng.Intn(g.MaxCalls)
	for len(c.Prog.Calls) < n {
		g.genCall(c, g.rng.Intn(kernel.NumSyscalls))
	}
	if err := c.Prog.Validate(); err != nil {
		panic("fuzz: generated invalid program: " + err.Error())
	}
}

// resourceKindsOK verifies that every resource reference still points at a
// call producing an acceptable descriptor kind — a tweak to a creator's
// arguments (e.g. open's path) can change what it produces.
func (g *Generator) resourceKindsOK(p *corpus.Prog) bool {
	for _, c := range p.Calls {
		spec := &kernel.Syscalls[c.Nr]
		for ai, a := range c.Args {
			if a.Kind != corpus.ResultArg {
				continue
			}
			kind := g.retKind(p.Calls[a.Ref])
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

// Mutate derives a variant of p in fresh storage: argument tweak, call
// insertion, or tail truncation (resource references always point
// backwards, so dropping a suffix keeps programs valid). Mutations that
// would break resource typing are retried; after a few failed attempts
// the original's calls are returned unchanged. The result shares every
// call it does not rewrite with p.
func (g *Generator) Mutate(p *corpus.Prog) *corpus.Prog {
	var c Candidate
	g.mutate(&c, p)
	return &c.Prog
}

// mutate builds a variant of p in c; p must not be built in c.
func (g *Generator) mutate(c *Candidate, p *corpus.Prog) {
	for attempt := 0; attempt < 4; attempt++ {
		g.mutateOnce(c, p)
		if g.resourceKindsOK(&c.Prog) {
			return
		}
	}
	c.reset()
	c.Prog.Calls = append(c.Prog.Calls, p.Calls...)
}

func (g *Generator) mutateOnce(c *Candidate, p *corpus.Prog) {
	c.reset()
	c.Prog.Calls = append(c.Prog.Calls, p.Calls...)
	calls := c.Prog.Calls
	switch g.rng.Intn(3) {
	case 0: // tweak one constant argument
		g.consts = g.consts[:0]
		for ci, call := range calls {
			for ai, a := range call.Args {
				if a.Kind == corpus.ConstArg {
					g.consts = append(g.consts, [2]int{ci, ai})
				}
			}
		}
		if len(g.consts) > 0 {
			pick := g.consts[g.rng.Intn(len(g.consts))]
			ci, ai := pick[0], pick[1]
			vals := kernel.Syscalls[calls[ci].Nr].Args[ai].Vals
			if len(vals) > 0 {
				// The call is p's: rewrite a copy of it.
				v := corpus.Const(vals[g.rng.Intn(len(vals))])
				start := len(c.args)
				c.args = append(c.args, calls[ci].Args...)
				c.args[start+ai] = v
				calls[ci].Args = c.args[start:len(c.args):len(c.args)]
			}
		}
	case 1: // append a call
		if len(calls) < 2*g.MaxCalls {
			g.genCall(c, g.rng.Intn(kernel.NumSyscalls))
		}
	case 2: // truncate the tail
		if len(calls) > 1 {
			c.Prog.Calls = calls[:1+g.rng.Intn(len(calls)-1)]
		}
	}
	if err := c.Prog.Validate(); err != nil {
		panic("fuzz: mutation produced invalid program: " + err.Error())
	}
}
