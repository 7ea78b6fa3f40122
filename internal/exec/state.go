package exec

import (
	"snowboard/internal/corpus"
	"snowboard/internal/kernel"
	"snowboard/internal/trace"
	"snowboard/internal/vm"
)

// State is a sequential run's state at a call boundary: everything Resume
// needs to continue the run there as if it had run from the snapshot. The
// zero State is the boundary before the first call, where every run starts.
// A State reads storage of the States it came from: it stays valid as more
// programs are captured into them, until their next Reset.
type State struct {
	Calls int       // calls completed before the boundary
	Steps int       // events the run made before it
	Last  trace.Ins // the site of its last traced access; trace.NoIns if none

	words   []word         // stored in order over the snapshot, they give the memory at the boundary, but the dead stack
	fds     []kernel.FDesc // the process's descriptor table
	rets    []int64        // the completed calls' return values
	console []string       // the console lines printed before it
}

// word is one 8-byte-aligned word of guest memory and its value.
type word struct{ addr, val uint64 }

// States is an arena of call-boundary states: Capture appends, for one
// program at a time, its run's state at each of its call boundaries, and
// Latest and RunSteps read them back. Every Env has one (Env.States), which
// a fuzzing campaign empties when it starts and fills with the programs its
// corpus keeps, so the states of all of them share a few slices kept across
// campaigns. Per program they hold its return values and console lines,
// and, for the boundaries where a run may resume, the words each changed
// since the one before, so that a boundary's memory is a prefix of its
// program's word list, and its descriptor table. States is written by
// Capture and Reset only; any number of goroutines may read it between
// them.
type States struct {
	progs   []captured
	bounds  []boundary
	words   []word
	fds     []kernel.FDesc
	rets    []int64
	console []string

	// The capture in progress: its trace and how far boundary has read it,
	// and every word its writes have touched, found through their index.
	tr      *trace.Trace
	scanned int
	touched []touchedWord
	index   trace.Shadow[uint32]
}

// captured is where one program's parts start in the arena.
type captured struct{ bounds, words, rets, console int }

// boundary is one call boundary of a captured program. Its words and
// console lines are those of its program up to the ends it records.
type boundary struct {
	steps      int
	words      int32 // end of its words in States.words
	fdLo, fdHi int32 // its descriptor table in States.fds
	console    int32 // its console lines, counted from its program's first
	last       trace.Ins
	atRest     bool // the thread held nothing a fresh thread does not
}

// touchedWord is a word a capture's writes have touched: its address, its
// value now and its value at the last at-rest boundary, or in the snapshot
// before any.
type touchedWord struct{ addr, now, kept uint64 }

// Reset empties the arena, keeping its storage.
func (s *States) Reset() {
	s.progs, s.bounds, s.words, s.fds = s.progs[:0], s.bounds[:0], s.words[:0], s.fds[:0]
	clear(s.console) // drop the strings
	s.rets, s.console = s.rets[:0], s.console[:0]
}

// States returns the Env's arena of call-boundary states, which Capture
// appends to: storage of the Env, like Result.Rets.
func (e *Env) States() *States { return &e.states }

// Capture runs prog sequentially from the snapshot, like RunSequential,
// recording its trace into tr (which must not be nil), and appends to the
// Env's States the state of the run at each of its call boundaries, the
// one before the first call and the one after the last included; a run
// that crashes has boundaries up to its crashing call. The program's id
// in the States is the number of programs captured into them before it.
func (e *Env) Capture(prog *corpus.Prog, tr *trace.Trace) Result {
	s := &e.states
	s.progs = append(s.progs, captured{
		bounds: len(s.bounds), words: len(s.words), rets: len(s.rets), console: len(s.console),
	})
	s.tr, s.scanned, s.touched = tr, 0, s.touched[:0]
	s.index.Reset()
	e.capture = true
	res := e.RunSequential(prog, tr)
	e.capture, s.tr = false, nil
	s.rets = append(s.rets, res.Rets[0]...)
	s.console = append(s.console, res.Console...)
	return res
}

// boundary records the state of the capturing run at the call boundary
// where thread t, running process p, now is. Every change a sequential run
// makes to guest memory is a traced write of its thread (Thread.Store and
// the lock operations; the machine's other writes release a finished
// thread's locks, past its last boundary), so folding the writes, in
// order, into the snapshot's values of the words they touch gives every
// word the run has changed. Where the thread is at rest the boundary keeps
// the touched words whose value changed since the last boundary that did,
// and the descriptor table.
//
// Writes to the thread's own stack are left out: at rest its stack is
// empty, and the guest stores every frame slot before it loads it
// (kernel.Invoke spills its arguments, then reloads them), so what lies
// below the stack pointer is never read again.
func (s *States) boundary(m *vm.Machine, snap *vm.Snapshot, t *vm.Thread, p *kernel.Proc) {
	tr := s.tr
	for ; s.scanned < tr.Len(); s.scanned++ {
		if i := s.scanned; tr.IsWriteAt(i) && !tr.StackAt(i) {
			s.write(snap, tr.AddrAt(i), uint64(tr.SizeAt(i)), tr.ValAt(i))
		}
	}
	b := boundary{
		steps:   m.Steps(),
		console: int32(len(m.Console.Lines())),
		last:    trace.NoIns,
		atRest:  t.AtRest(),
	}
	if n := tr.Len(); n > 0 {
		b.last = tr.InsAt(n - 1)
	}
	if b.atRest {
		for i := range s.touched {
			if w := &s.touched[i]; w.now != w.kept {
				s.words = append(s.words, word{addr: w.addr, val: w.now})
				w.kept = w.now
			}
		}
		b.fdLo = int32(len(s.fds))
		s.fds = append(s.fds, p.FDs()...)
		b.fdHi = int32(len(s.fds))
	}
	b.words = int32(len(s.words))
	s.bounds = append(s.bounds, b)
}

// write folds the store of the low size bytes of val at addr into the
// touched words: one, or two if it crosses a word boundary.
func (s *States) write(snap *vm.Snapshot, addr, size, val uint64) {
	for a := addr &^ 7; a < addr+size; a += 8 {
		// The bytes of the store inside word a: [lo, hi) of the word,
		// from byte off of the store.
		lo, hi := max(addr, a)-a, min(addr+size, a+8)-a
		off := a + lo - addr
		mask := ^uint64(0) >> (64 - 8*(hi-lo)) << (8 * lo)
		w := s.word(snap, a)
		w.now = w.now&^mask | val>>(8*off)<<(8*lo)&mask
	}
}

// word returns the touched word at a, noting it first if it is new.
func (s *States) word(snap *vm.Snapshot, a uint64) *touchedWord {
	i := s.index.Slot(a)
	if *i == 0 {
		v := snap.Word(a)
		s.touched = append(s.touched, touchedWord{addr: a, now: v, kept: v})
		*i = uint32(len(s.touched))
	}
	return &s.touched[*i-1]
}

// of returns program id's part of the arena and its boundaries.
func (s *States) of(id int) (captured, []boundary) {
	c := s.progs[id]
	end := len(s.bounds)
	if id+1 < len(s.progs) {
		end = s.progs[id+1].bounds
	}
	return c, s.bounds[c.bounds:end]
}

// Latest returns the state of program id's run at its latest call boundary
// at or before call n where the thread was at rest: the zero State if there
// is none but the first. A run of any program whose first n calls are
// program id's may Resume from it.
func (s *States) Latest(id, n int) State {
	c, bs := s.of(id)
	for k := min(n, len(bs)-1); k > 0; k-- {
		if b := &bs[k]; b.atRest {
			return State{
				Calls:   k,
				Steps:   b.steps,
				Last:    b.last,
				words:   s.words[c.words:b.words],
				fds:     s.fds[b.fdLo:b.fdHi],
				rets:    s.rets[c.rets : c.rets+k],
				console: s.console[c.console : c.console+int(b.console)],
			}
		}
	}
	return State{}
}

// RunSteps returns the steps a sequential run of program id's first n
// calls makes: its events up to call boundary n, and the thread's exit.
// n must be a boundary program id's run reached.
func (s *States) RunSteps(id, n int) int {
	_, bs := s.of(id)
	return bs[n].steps + 1
}
