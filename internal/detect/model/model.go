// Package model is the reference for what stage 4 derives from one trial's
// trace: the two oracles — happens-before data races and torn reads — and
// the four outputs that steer the search — alias pairs, interleaving
// segments, whether the hinted channel was exercised, and Algorithm 2's
// incidental PMCs. Each is computed the brute-force way, with per-byte maps
// and full scans, so that the tests of internal/detect, internal/cover and
// internal/sched can diff their flat, fused implementations against one
// model instead of each keeping the implementation it replaced. Gen and
// Census generate the traces those tests feed both sides and count the
// shapes the traces reach.
//
// The package imports only trace and pmc, so that the in-package tests of
// every analysis above them can import it. Nothing outside tests uses it.
package model

import (
	"cmp"
	"math/rand"
	"slices"

	"snowboard/internal/pmc"
	"snowboard/internal/trace"
)

// Race is a happens-before data race: detect.RaceReport's fields.
type Race struct {
	Write, Read trace.Access
}

// Torn is a torn read: detect.TornRead's fields.
type Torn struct {
	ReadIns  trace.Ins
	WriteIns trace.Ins
	Addr     uint64
	Len      int
}

// Pair is an alias instruction pair: cover.Pair's fields.
type Pair struct {
	First  trace.Ins
	Second trace.Ins
}

// Comm is a communication abstracted to regions: cover.Comm's fields.
type Comm struct {
	Write trace.Ins
	Read  trace.Ins
}

// Segment is two consecutive distinct communications: cover.Segment's
// fields, over Comm.
type Segment struct {
	First  Comm
	Second Comm
}

// Steer is what a trial's search is steered by: the hint its test was
// generated for, the PMCs the trial may adopt, and the PMCs under test in
// the trial.
type Steer struct {
	Hint    *pmc.PMC
	Known   *pmc.Set
	Current []pmc.PMC
}

// Trial is everything stage 4 derives from one trial's trace.
type Trial struct {
	Races    []Race // in report order
	Torn     []Torn
	Pairs    map[Pair]bool
	Segments map[Segment]bool

	// With a Steer: whether the hinted channel was exercised (with a hint),
	// and the incidental candidates, ranked (with a known set).
	Exercised  bool
	Incidental []pmc.PMC
}

// Analyze derives every output of the trial's trace; s may be nil.
func Analyze(tr *trace.Trace, s *Steer) Trial {
	t := Trial{Races: Races(tr), Torn: TornReads(tr)}
	t.Pairs, t.Segments = Coverage(tr)
	if s != nil && s.Hint != nil {
		t.Exercised = Exercised(tr, s.Hint)
	}
	if s != nil && s.Known != nil {
		t.Incidental = Incidental(s.Known, tr, s.Current)
	}
	return t
}

// vclock is a dynamically sized vector clock: component i is thread i's
// logical time, with absent entries implicitly zero. Clocks grow on
// demand, so the analysis has no fixed thread-count ceiling.
type vclock []uint64

func (v vclock) get(t int) uint64 {
	if t < len(v) {
		return v[t]
	}
	return 0
}

func (v *vclock) set(t int, c uint64) {
	for len(*v) <= t {
		*v = append(*v, 0)
	}
	(*v)[t] = c
}

func (v *vclock) join(o vclock) {
	for i, c := range o {
		if c > v.get(i) {
			v.set(i, c)
		}
	}
}

func (v vclock) clone() vclock { return append(vclock(nil), v...) }

// epoch is a (thread, clock) pair identifying one access.
type epoch struct {
	t int
	c uint64
}

// happenedBefore reports whether the epoch is ordered before the clock.
func (e epoch) happenedBefore(v vclock) bool { return e.c <= v.get(e.t) }

// readRec is one thread's most recent read of a byte (clock 0 = none).
type readRec struct {
	clock  uint64
	ins    trace.Ins
	marked bool
}

type byteState struct {
	lastWrite   epoch
	hasWrite    bool
	writeIns    trace.Ins
	writeMarked bool
	reads       []readRec // indexed by thread, grown on demand
}

func (st *byteState) setRead(t int, r readRec) {
	if len(st.reads) <= t {
		st.reads = append(st.reads, make([]readRec, t+1-len(st.reads))...)
	}
	st.reads[t] = r
}

// word is the byte states of an 8-byte word, with room for two threads'
// reads of each byte before a byte's reads need a slice of their own.
type word struct {
	bytes [8]byteState
	reads [8][2]readRec
}

func newWord() *word {
	w := new(word)
	for k := range w.bytes {
		w.bytes[k].reads = w.reads[k][:0]
	}
	return w
}

// Races runs the happens-before race analysis over the trial trace, one
// history per byte, kept in a map by 8-byte word: the detector
// internal/detect shipped before its flat shadow tables.
func Races(tr *trace.Trace) []Race {
	n := tr.Len()
	var clocks []vclock
	clockOf := func(t int) *vclock {
		for len(clocks) <= t {
			clocks = append(clocks, nil)
		}
		if clocks[t] == nil {
			var v vclock
			v.set(t, 1)
			clocks[t] = v
		}
		return &clocks[t]
	}
	lockVC := make(map[uint64]vclock)
	pubVC := make(map[uint64]vclock) // per published address

	words := make(map[uint64]*word)

	// Reports are deduplicated per (write site, read site, access address):
	// the same racy pair on a different object is a distinct finding.
	type pairKey struct {
		w, r trace.Ins
		addr uint64
	}
	seen := make(map[pairKey]bool)
	var out []Race

	report := func(w, r *trace.Access, addr uint64) {
		k := pairKey{w: w.Ins, r: r.Ins, addr: addr}
		if seen[k] {
			return
		}
		seen[k] = true
		out = append(out, Race{Write: *w, Read: *r})
	}

	for i := 0; i < n; i++ {
		a := tr.At(i)
		t := a.Thread
		if t < 0 {
			continue
		}
		vc := clockOf(t)

		if a.Atomic {
			// Lock-word traffic: value != 0 is an acquire, 0 is a release.
			if a.Kind == trace.Write && a.Val == 0 {
				lockVC[a.Addr] = vc.clone()
				vc.set(t, vc.get(t)+1)
			} else if a.Kind == trace.Write {
				if lv := lockVC[a.Addr]; lv != nil {
					vc.join(lv)
				}
			}
			continue
		}
		if a.Marked && a.Kind == trace.Write {
			pubVC[a.Addr] = vc.clone()
			vc.set(t, vc.get(t)+1)
			// Marked writes also participate in conflict checks below (a
			// plain access on the other side is still a race).
		}
		if a.Kind == trace.Read {
			// Any read of a published location — marked or plain — joins
			// the publisher's clock: RCU readers reach published objects
			// through an address dependency, which orders the publisher's
			// earlier initialization before the reader's dereferences.
			if pv := pubVC[a.Addr]; pv != nil {
				vc.join(pv)
			}
		}
		if a.Stack {
			continue
		}

		cur := epoch{t: t, c: vc.get(t)}
		for b := a.Addr; b < a.End(); b++ {
			w := words[b>>3]
			if w == nil {
				w = newWord()
				words[b>>3] = w
			}
			st := &w.bytes[b&7]
			if st.hasWrite && st.lastWrite.t != t &&
				!(st.writeMarked && a.Marked) &&
				!st.lastWrite.happenedBefore(*vc) {
				w := trace.Access{Thread: st.lastWrite.t, Ins: st.writeIns, Kind: trace.Write, Addr: b, Size: 1, Marked: st.writeMarked}
				report(&w, &a, a.Addr)
			}
			if a.Kind == trace.Read {
				st.setRead(t, readRec{clock: cur.c, ins: a.Ins, marked: a.Marked})
				continue
			}
			for ot := range st.reads {
				rr := st.reads[ot]
				if ot == t || rr.clock == 0 {
					continue
				}
				re := epoch{t: ot, c: rr.clock}
				if !(rr.marked && a.Marked) && !re.happenedBefore(*vc) {
					r := trace.Access{Thread: ot, Ins: rr.ins, Kind: trace.Read, Addr: b, Size: 1, Marked: rr.marked}
					report(&a, &r, a.Addr)
				}
			}
			st.hasWrite = true
			st.lastWrite = cur
			st.writeIns = a.Ins
			st.writeMarked = a.Marked
		}
	}
	return out
}

// last is a byte's last data access, for the coverage walk.
type last struct {
	ins    trace.Ins
	thread int
	write  bool
	set    bool
}

// Coverage returns the trial's alias pairs — for every byte, consecutive
// data accesses by different threads, at least one a write — and its
// interleaving segments: an access's first communication, abstracted to
// regions, following the trial's previous distinct one.
func Coverage(tr *trace.Trace) (map[Pair]bool, map[Segment]bool) {
	lasts := make(map[uint64]*[8]last) // by word, a byte's last data access
	pairs, segs := make(map[Pair]bool), make(map[Segment]bool)
	var prev Comm
	havePrev := false
	for i, n := 0, tr.Len(); i < n; i++ {
		if tr.StackAt(i) || tr.AtomicAt(i) {
			continue
		}
		ins, thread, isWrite := tr.InsAt(i), tr.ThreadAt(i), tr.IsWriteAt(i)
		comm := Comm{}
		haveComm := false
		for b := tr.AddrAt(i); b < tr.EndAt(i); b++ {
			w := lasts[b>>3]
			if w == nil {
				w = new([8]last)
				lasts[b>>3] = w
			}
			if p := &w[b&7]; p.set && p.thread != thread && (p.write || isWrite) {
				pairs[Pair{First: p.ins, Second: ins}] = true
				if !haveComm {
					comm = Comm{Write: trace.RegionOf(p.ins), Read: trace.RegionOf(ins)}
					haveComm = true
				}
			}
			w[b&7] = last{ins: ins, thread: thread, write: isWrite, set: true}
		}
		if !haveComm || (havePrev && comm == prev) {
			continue
		}
		if havePrev {
			segs[Segment{First: prev, Second: comm}] = true
		}
		prev, havePrev = comm, true
	}
	return pairs, segs
}

// AddFresh adds a trial's distinct pairs or segments to an accumulator
// over trials, one hit each, and returns how many were new to it: what a
// coverage accumulator's fold reports.
func AddFresh[K comparable](acc map[K]int, trial map[K]bool) int {
	fresh := 0
	for k := range trial {
		fresh += btoi(acc[k] == 0)
		acc[k]++
	}
	return fresh
}

// TornReads scans the trial for runs of same-instruction byte reads by one
// thread with a conflicting write from another thread sequenced inside the
// run — direct evidence that the reader observed a mix of old and new
// bytes. It scans every run: the thread-switch gate of
// detect.FindTornReads is what it checks.
func TornReads(tr *trace.Trace) []Torn {
	n := tr.Len()
	var out []Torn
	for i := 0; i < n; {
		if tr.KindAt(i) != trace.Read || tr.StackAt(i) || tr.AtomicAt(i) {
			i++
			continue
		}
		aThread, aIns := tr.ThreadAt(i), tr.InsAt(i)
		// Collect the run of reads by the same thread+instruction over
		// adjacent ascending addresses (a memcpy loop).
		j := i
		for j+1 < n {
			// Allow interleaved accesses from other threads inside the run.
			next := -1
			for k := j + 1; k < n && k <= j+lookahead; k++ {
				if tr.ThreadAt(k) == aThread {
					if tr.InsAt(k) == aIns && tr.KindAt(k) == trace.Read && tr.AddrAt(k) == tr.EndAt(j) {
						next = k
					}
					break
				}
			}
			if next < 0 {
				break
			}
			j = next
		}
		if j > i+1 { // a run of at least 3 rows
			lo, hi := tr.AddrAt(i), tr.EndAt(j)
			// Any conflicting write sequenced strictly inside the run?
			for k := i + 1; k < j; k++ {
				if tr.IsWriteAt(k) && tr.ThreadAt(k) != aThread && tr.AddrAt(k) < hi && tr.EndAt(k) > lo {
					out = append(out, Torn{ReadIns: aIns, WriteIns: tr.InsAt(k), Addr: lo, Len: int(hi - lo)})
					break
				}
			}
		}
		i = j + 1
	}
	return out
}

// lookahead is how many rows past a run's last read the torn-read scan
// looks for the reading thread's next access.
const lookahead = 16

// sig identifies an access for matching, as the trial scheduler does:
// kind, site and range, not the value. Its fields leave no padding, so a
// map hashes it as plain memory.
type sig struct {
	addr       uint64
	ins        trace.Ins
	kind, size uint16
}

func sigOfKey(kind trace.Kind, k pmc.Key) sig {
	return sig{kind: uint16(kind), ins: k.Ins, addr: k.Addr, size: uint16(k.Size)}
}

func sigOf(a *trace.Access) sig {
	return sig{kind: uint16(a.Kind), ins: a.Ins, addr: a.Addr, size: uint16(a.Size)}
}

// Exercised reports whether the trial trace contains the hinted
// communication: a write matching the hint's write site followed by a read
// matching the hint's read site from a different thread that observed the
// written bytes, with no intervening write to the overlap.
func Exercised(tr *trace.Trace, hint *pmc.PMC) bool {
	ws := sigOfKey(trace.Write, hint.Write)
	rs := sigOfKey(trace.Read, hint.Read)
	lastWrite := -1
	for i, n := 0, tr.Len(); i < n; i++ {
		a := tr.At(i)
		if sigOf(&a) == ws {
			lastWrite = i
			continue
		}
		if lastWrite < 0 || sigOf(&a) != rs || a.Thread == tr.ThreadAt(lastWrite) {
			continue
		}
		w := tr.At(lastWrite)
		if !a.Overlaps(&w) {
			continue
		}
		lo, hi := a.OverlapRange(&w)
		if a.ProjectVal(lo, hi) != w.ProjectVal(lo, hi) {
			continue // someone else overwrote in between
		}
		clean := true
		for j := lastWrite + 1; j < i; j++ {
			if tr.IsWriteAt(j) && tr.AddrAt(j) < hi && tr.EndAt(j) > lo {
				clean = false
				break
			}
		}
		if clean {
			return true
		}
	}
	return false
}

// Incidental returns Algorithm 2's incidental candidates of the trial,
// ranked: every known PMC whose write and read keys both occur among the
// trial's data accesses, unless both its sides are under test (sides of
// different current PMCs count), least frequently executed signatures
// first, ties broken by the PMC's fields. Fresh maps per call and a scan
// of every entry of known.
func Incidental(known *pmc.Set, tr *trace.Trace, current []pmc.PMC) []pmc.PMC {
	curSet := make(map[sig]bool, len(current)*2)
	for _, p := range current {
		curSet[sigOfKey(trace.Write, p.Write)] = true
		curSet[sigOfKey(trace.Read, p.Read)] = true
	}
	// The keys the trial's data accesses executed, by kind: a sig and the
	// value moved.
	type key struct {
		sig
		val uint64
	}
	seen := make(map[key]bool, tr.Len())
	sigCount := make(map[sig]int, tr.Len())
	for i, n := 0, tr.Len(); i < n; i++ {
		a := tr.At(i)
		if a.Stack || a.Atomic {
			continue
		}
		seen[key{sigOf(&a), a.Val}] = true
		sigCount[sigOf(&a)]++
	}
	// A candidate's frequency is how often the trial executed its two
	// access signatures: the least frequent rank first.
	type candidate struct {
		pmc.PMC
		freq int
	}
	var candidates []candidate
	for p, e := range known.Entries {
		ws, rs := sigOfKey(trace.Write, p.Write), sigOfKey(trace.Read, p.Read)
		if seen[key{ws, p.Write.Val}] && seen[key{rs, p.Read.Val}] {
			if curSet[ws] && curSet[rs] {
				continue
			}
			candidates = append(candidates, candidate{e.PMC, sigCount[ws] + sigCount[rs]})
		}
	}
	slices.SortFunc(candidates, func(a, b candidate) int {
		return cmp.Or(cmp.Compare(a.freq, b.freq),
			cmp.Compare(a.Write.Ins, b.Write.Ins), cmp.Compare(a.Write.Addr, b.Write.Addr),
			cmp.Compare(a.Read.Ins, b.Read.Ins), cmp.Compare(a.Read.Addr, b.Read.Addr),
			cmp.Compare(a.Write.Val, b.Write.Val), cmp.Compare(a.Read.Val, b.Read.Val),
			cmp.Compare(a.Write.Size, b.Write.Size), cmp.Compare(a.Read.Size, b.Read.Size),
			cmp.Compare(btoi(a.DFLeader), btoi(b.DFLeader)))
	})
	ranked := make([]pmc.PMC, len(candidates))
	for i, c := range candidates {
		ranked[i] = c.PMC
	}
	return ranked
}

// Adopt draws the PMC a trial adopts from its ranked incidental
// candidates: one of the least-frequent quartile, with one draw from the
// trial's rng, or none without a candidate.
func Adopt(ranked []pmc.PMC, rng *rand.Rand) (pmc.PMC, bool) {
	if len(ranked) == 0 {
		return pmc.PMC{}, false
	}
	return ranked[rng.Intn((len(ranked)+3)/4)], true
}
