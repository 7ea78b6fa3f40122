package detect

import (
	"slices"

	"snowboard/internal/cover"
	"snowboard/internal/trace"
)

// Happens-before data race detection in the style of FastTrack, the
// precise per-execution analogue of the paper's runtime race detector.
// The trial trace is processed in its (serialized) execution order while
// vector clocks track the synchronization order induced by:
//
//   - program order within each thread,
//   - lock release → subsequent acquire of the same lock word,
//   - marked (rcu_assign_pointer/WRITE_ONCE) store → marked load that
//     observes the published location (the RCU publication edge).
//
// Two accesses race when they conflict (overlap, ≥1 write, not both
// marked, neither a lock word nor a stack slot) and neither happens before
// the other. Unlike the pure lockset analysis (FindRaces), this does not
// flag the init-before-publish pattern, because publication orders the
// initializing stores before every reader that dereferences the published
// pointer.

// vclock is a dynamically sized vector clock: component i is thread i's
// logical time, with absent entries implicitly zero. Clocks grow on
// demand, so the analysis has no fixed thread-count ceiling. A component
// ticks at most once per traced access, so 32 bits cannot overflow.
type vclock []uint32

func (v vclock) get(t int) uint32 {
	if t < len(v) {
		return v[t]
	}
	return 0
}

func (v *vclock) set(t int, c uint32) {
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

// prior is an earlier access to a byte: its last write, or one thread's
// most recent read (clock 0 = none).
type prior struct {
	clock  uint32
	ins    trace.Ins
	thread uint16
	marked bool
}

// unordered reports whether p conflicts with, and does not happen before,
// an access by thread t whose clock is vc.
func (p prior) unordered(t int, marked bool, vc vclock) bool {
	return p.clock != 0 && int(p.thread) != t && !(p.marked && marked) && p.clock > vc.get(int(p.thread))
}

// inlineReaders is how many threads' reads a byte keeps inline: the two
// executor threads of a concurrent test. Higher thread ids spill.
const inlineReaders = 2

// byteState is the access history of one byte: its last write and the last
// read per thread.
type byteState struct {
	write prior
	spill uint32 // 1 + index into hbState.spill, 0 = no reads by threads ≥ inlineReaders
	reads [inlineReaders]prior
	pred  cover.Pred // for a coverage walker riding the walk
}

// clockRef locates a clock copy in the arena (n == 0: none taken).
type clockRef struct{ off, n uint32 }

// syncClocks are the clocks attached to one address: the releaser's clock
// when it is a lock word, the publisher's when a marked store hit it.
type syncClocks struct{ lock, pub clockRef }

// raceKey deduplicates reports per (write site, read site, access
// address): the same racy pair on a different object is a distinct finding.
type raceKey struct {
	w, r trace.Ins
	addr uint64
}

// raceKeys is the set of raceKeys filed in one trial, a chain of them per
// address: a flat table holds no padded struct key, and an address's few
// pairs compare in place.
type raceKeys struct {
	byAddr trace.Shadow[uint32] // 1 + index into keys of the address's latest key
	keys   []raceKey
	next   []uint32 // next[i]: 1 + index of the address's key before keys[i], 0 = none
}

func (s *raceKeys) reset() {
	s.byAddr.Reset()
	s.keys, s.next = s.keys[:0], s.next[:0]
}

// add inserts k and reports whether it was absent.
func (s *raceKeys) add(k raceKey) bool {
	head := s.byAddr.Slot(k.addr)
	for i := *head; i != 0; i = s.next[i-1] {
		if o := &s.keys[i-1]; o.w == k.w && o.r == k.r {
			return false
		}
	}
	s.keys = append(s.keys, k)
	s.next = append(s.next, *head)
	*head = uint32(len(s.keys))
	return true
}

// hbState is the state of FindRacesHB, reused from trial to trial.
type hbState struct {
	hist   trace.WordCells[byteState] // indexed by the trial view's word ids
	sync   trace.Shadow[syncClocks]   // keyed by exact address
	pubs   uint64                     // pubBit of every address a marked write published
	arena  []uint32                   // clock copies referenced by sync
	clocks []vclock                   // per thread; empty = not yet started
	spill  [][]prior                  // per spilled byte, indexed by thread - inlineReaders
	seen   raceKeys
	out    []RaceReport

	// The report just filed and the access it was filed for: the adjacent
	// bytes of one access mostly repeat it, and skip the seen set.
	filed   raceKey
	filedAt int
}

func (s *hbState) reset(v *trace.View) {
	s.hist.Reset(v)
	s.sync.Reset()
	s.pubs = 0
	s.arena = s.arena[:0]
	for i := range s.clocks {
		s.clocks[i] = s.clocks[i][:0]
	}
	s.spill = s.spill[:0]
	s.seen.reset()
	s.out = s.out[:0]
	s.filedAt = -1
}

// clockOf returns thread t's clock, starting it at time 1 on first use.
func (s *hbState) clockOf(t int) *vclock {
	if t < len(s.clocks) && len(s.clocks[t]) != 0 {
		return &s.clocks[t]
	}
	for len(s.clocks) <= t {
		s.clocks = append(s.clocks, nil)
	}
	s.clocks[t].set(t, 1)
	return &s.clocks[t]
}

// save copies vc into the arena, reusing ref's storage when it fits.
func (s *hbState) save(ref *clockRef, vc vclock) {
	if int(ref.n) != len(vc) {
		ref.off, ref.n = uint32(len(s.arena)), uint32(len(vc))
		s.arena = append(s.arena, vc...)
		return
	}
	copy(s.arena[ref.off:], vc)
}

func (s *hbState) saved(ref clockRef) vclock { return s.arena[ref.off : ref.off+ref.n] }

// pubBit is addr's bit in hbState.pubs: a read whose bit is clear has no
// publication clock to join.
func pubBit(addr uint64) uint64 { return 1 << (addr * 0x9E3779B97F4A7C15 >> 58) }

// newSpill returns 1 + the index of a fresh spill list holding a copy of
// readers, on the storage of a previous trial's list.
func (s *hbState) newSpill(readers []prior) uint32 {
	s.spill = slices.Grow(s.spill, 1)[:len(s.spill)+1]
	last := &s.spill[len(s.spill)-1]
	*last = append((*last)[:0], readers...)
	return uint32(len(s.spill))
}

// spilled returns the read record of thread t ≥ inlineReaders on st,
// growing the byte's spill list on demand.
func (s *hbState) spilled(st *byteState, t int) *prior {
	if st.spill == 0 {
		st.spill = s.newSpill(nil)
	}
	list := &s.spill[st.spill-1]
	for len(*list) <= t-inlineReaders {
		*list = append(*list, prior{})
	}
	return &(*list)[t-inlineReaders]
}

// report files the race on byte b between the access at trace index i and
// p, an unordered earlier access of the given kind. The report's Write side
// is whichever of the two is the (earlier) write.
func (s *hbState) report(tr *trace.Trace, i int, b uint64, kind trace.Kind, p prior) {
	k := raceKey{w: p.ins, r: tr.InsAt(i), addr: tr.AddrAt(i)}
	if kind == trace.Read {
		k.w, k.r = k.r, k.w
	}
	if (i == s.filedAt && k == s.filed) || !s.seen.add(k) {
		return
	}
	s.filed, s.filedAt = k, i
	rep := RaceReport{Read: tr.At(i), Write: trace.Access{
		Thread: int(p.thread), Ins: p.ins, Kind: kind, Addr: b, Size: 1, Marked: p.marked}}
	if kind == trace.Read {
		rep.Write, rep.Read = rep.Read, rep.Write
	}
	s.out = append(s.out, rep)
}

// FindRacesHB runs the happens-before race analysis over the trial trace.
func FindRacesHB(tr *trace.Trace) []RaceReport {
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	sc.view.Build(tr)
	return append([]RaceReport(nil), sc.hb.findRaces(&sc.view, nil)...)
}

// findRaces walks the view's trace. Synchronization is tracked for every
// access that has any; the per-byte conflict check runs only for accesses
// to memory that a second thread touched (View.Shared). That loses
// nothing: an unordered prior is always another thread's, and the state a
// skipped access would have left is read only by accesses to the same,
// equally private, word. A plain access to such memory — stack accesses
// included — that joins no publisher's clock is skipped before its
// thread's clock is touched: the first touch only starts the clock at 1,
// which a later one does as well. The coverage walk visits the same
// accesses and cells: cw, when set, rides this one on the Pred of every
// cell.
func (s *hbState) findRaces(v *trace.View, cw *cover.Walker) []RaceReport {
	tr := v.Trace()
	s.reset(v)
	for i, n := 0, tr.Len(); i < n; i++ {
		addr, isWrite, marked, atomic := tr.AddrAt(i), tr.IsWriteAt(i), tr.MarkedAt(i), tr.AtomicAt(i)
		shared := v.Shared(i)
		if !shared && !marked && !atomic && (isWrite || s.pubs&pubBit(addr) == 0) {
			continue
		}
		t := tr.ThreadAt(i)
		vc := s.clockOf(t)

		if atomic {
			// Lock-word traffic: value != 0 is an acquire, 0 is a release.
			if !isWrite {
				continue
			}
			if tr.ValAt(i) == 0 {
				s.save(&s.sync.Slot(addr).lock, *vc)
				vc.set(t, vc.get(t)+1)
			} else if sy := s.sync.Get(addr); sy != nil && sy.lock.n != 0 {
				vc.join(s.saved(sy.lock))
			}
			continue
		}
		if marked && isWrite {
			s.save(&s.sync.Slot(addr).pub, *vc)
			s.pubs |= pubBit(addr)
			vc.set(t, vc.get(t)+1)
			// Marked writes also participate in conflict checks below (a
			// plain access on the other side is still a race).
		}
		if !isWrite && s.pubs&pubBit(addr) != 0 {
			// Any read of a published location — marked or plain — joins
			// the publisher's clock: RCU readers reach published objects
			// through an address dependency, which orders the publisher's
			// earlier initialization before the reader's dereferences.
			if sy := s.sync.Get(addr); sy != nil && sy.pub.n != 0 {
				vc.join(s.saved(sy.pub))
			}
		}
		if !shared { // stack accesses included
			continue
		}

		cur := prior{clock: vc.get(t), ins: tr.InsAt(i), thread: uint16(t), marked: marked}
		if cw != nil {
			cw.Begin(cur.ins, t, isWrite)
		}
		id, second := v.WordsAt(i)
		for b, end := addr, tr.EndAt(i); b < end; id = second {
			// One history per byte, or one for all eight bytes of a word
			// only ever accessed whole: each byte would file the reports of
			// the first again, which report drops, and take the same update.
			cells, n, fresh := s.hist.At(id, b, end)
			if fresh && cells[0].spill != 0 {
				// A word just split: its bytes must not share a spill list.
				for k, bytes := 1, s.hist.Bytes(id); k < len(bytes); k++ {
					bytes[k].spill = s.newSpill(s.spill[bytes[0].spill-1])
				}
			}
			for k := range cells {
				st, b := &cells[k], b+uint64(k)
				if cw != nil {
					cw.Step(&st.pred)
				}
				if st.write.unordered(t, marked, *vc) {
					s.report(tr, i, b, trace.Write, st.write)
				}
				if !isWrite {
					if t < inlineReaders {
						st.reads[t] = cur
					} else {
						*s.spilled(st, t) = cur
					}
					continue
				}
				for _, r := range st.reads {
					if r.unordered(t, marked, *vc) {
						s.report(tr, i, b, trace.Read, r)
					}
				}
				if st.spill != 0 {
					for _, r := range s.spill[st.spill-1] {
						if r.unordered(t, marked, *vc) {
							s.report(tr, i, b, trace.Read, r)
						}
					}
				}
				st.write = cur
			}
			b += n
		}
		if cw != nil {
			cw.End()
		}
	}
	return s.out
}
