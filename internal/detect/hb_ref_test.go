package detect

import (
	"snowboard/internal/trace"
)

// The map-based happens-before detector this package shipped before the
// flat shadow table, kept verbatim (identifiers prefixed) as the
// differential oracle: FindRacesHB must return the same reports in the same
// order.

// refVClock is a dynamically sized vector clock: component i is thread i's
// logical time, with absent entries implicitly zero. Clocks grow on
// demand, so the analysis has no fixed thread-count ceiling.
type refVClock []uint64

func (v refVClock) get(t int) uint64 {
	if t < len(v) {
		return v[t]
	}
	return 0
}

func (v *refVClock) set(t int, c uint64) {
	for len(*v) <= t {
		*v = append(*v, 0)
	}
	(*v)[t] = c
}

func (v *refVClock) join(o refVClock) {
	for i, c := range o {
		if c > v.get(i) {
			v.set(i, c)
		}
	}
}

func (v refVClock) clone() refVClock { return append(refVClock(nil), v...) }

// refEpoch is a (thread, clock) pair identifying one access.
type refEpoch struct {
	t int
	c uint64
}

// happenedBefore reports whether the refEpoch is ordered before the clock.
func (e refEpoch) happenedBefore(v refVClock) bool { return e.c <= v.get(e.t) }

// refReadRec is one thread's most recent read of a byte (clock 0 = none).
type refReadRec struct {
	clock  uint64
	ins    trace.Ins
	marked bool
}

type refByteState struct {
	lastWrite   refEpoch
	hasWrite    bool
	writeIns    trace.Ins
	writeMarked bool
	reads       []refReadRec // indexed by thread, grown on demand
}

func (st *refByteState) setRead(t int, r refReadRec) {
	for len(st.reads) <= t {
		st.reads = append(st.reads, refReadRec{})
	}
	st.reads[t] = r
}

// refFindRacesHB runs the happens-before race analysis over the trial trace.
func refFindRacesHB(tr *trace.Trace) []RaceReport {
	var clocks []refVClock
	clockOf := func(t int) *refVClock {
		for len(clocks) <= t {
			clocks = append(clocks, nil)
		}
		if clocks[t] == nil {
			var v refVClock
			v.set(t, 1)
			clocks[t] = v
		}
		return &clocks[t]
	}
	lockVC := make(map[uint64]refVClock)
	pubVC := make(map[uint64]refVClock) // per published address

	bytes := make(map[uint64]*refByteState)

	// Reports are deduplicated per (write site, read site, access address):
	// the same racy pair on a different object is a distinct finding.
	type pairKey struct {
		w, r trace.Ins
		addr uint64
	}
	seen := make(map[pairKey]bool)
	var out []RaceReport

	report := func(w, r *trace.Access, addr uint64) {
		k := pairKey{w: w.Ins, r: r.Ins, addr: addr}
		if seen[k] {
			return
		}
		seen[k] = true
		out = append(out, RaceReport{Write: *w, Read: *r})
	}

	n := tr.Len()
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

		cur := refEpoch{t: t, c: vc.get(t)}
		for b := a.Addr; b < a.End(); b++ {
			st := bytes[b]
			if st == nil {
				st = &refByteState{}
				bytes[b] = st
			}
			if a.Kind == trace.Read {
				if st.hasWrite && st.lastWrite.t != t &&
					!(st.writeMarked && a.Marked) &&
					!st.lastWrite.happenedBefore(*vc) {
					w := trace.Access{Thread: st.lastWrite.t, Ins: st.writeIns, Kind: trace.Write, Addr: b, Size: 1, Marked: st.writeMarked}
					report(&w, &a, a.Addr)
				}
				st.setRead(t, refReadRec{clock: cur.c, ins: a.Ins, marked: a.Marked})
			} else {
				if st.hasWrite && st.lastWrite.t != t &&
					!(st.writeMarked && a.Marked) &&
					!st.lastWrite.happenedBefore(*vc) {
					w := trace.Access{Thread: st.lastWrite.t, Ins: st.writeIns, Kind: trace.Write, Addr: b, Size: 1, Marked: st.writeMarked}
					report(&w, &a, a.Addr)
				}
				for ot := range st.reads {
					rr := st.reads[ot]
					if ot == t || rr.clock == 0 {
						continue
					}
					re := refEpoch{t: ot, c: rr.clock}
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
	}
	return out
}
