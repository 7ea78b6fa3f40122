package cover

import "snowboard/internal/trace"

// lastAccess is the most recent access to one byte while walking a trace.
type lastAccess struct {
	ins    trace.Ins
	thread uint16
	write  bool
	set    bool
}

// Walker is the reusable scratch of the one trace walk behind both
// concurrency metrics: the last access per byte — per word, for a word only
// ever accessed whole — indexed by the trial view's word ids, and the
// trace's distinct alias pairs and interleaving segments. An explorer owns
// one and feeds both of its accumulators from a single pass per trial. The
// zero value is ready to use; a Walker is not safe for concurrent use.
type Walker struct {
	view  trace.View // built by the standalone Coverage.AddTrace and Segments.AddTrace
	last  trace.WordCells[lastAccess]
	pairs map[Pair]int // the trace's distinct pairs, each counted once
	segs  map[Segment]int
}

// AddTrace walks one trial trace once, through its view, and folds it into
// c and s, either of which may be nil, returning how many new pairs and
// segments it contributed — what c.AddTrace(tr) and s.AddTrace(tr) would have.
func (w *Walker) AddTrace(v *trace.View, c *Coverage, s *Segments) (freshPairs, freshSegs int) {
	if c == nil && s == nil {
		return 0, 0
	}
	w.walk(v, c != nil, s != nil)
	if c != nil {
		c.mu.Lock()
		freshPairs = addCounts(c.pairs, w.pairs)
		c.mu.Unlock()
	}
	if s != nil {
		s.mu.Lock()
		freshSegs = addCounts(s.segs, w.segs)
		s.mu.Unlock()
	}
	return freshPairs, freshSegs
}

// walk collects the trace's distinct pairs and/or segments into w. A
// communication is a non-stack, non-atomic access to a byte whose previous
// access came from another thread, at least one of the two being a write —
// so only accesses to memory a second thread touched (View.Shared) are
// looked at: no other access communicates, or is the predecessor of one
// that does.
func (w *Walker) walk(v *trace.View, wantPairs, wantSegs bool) {
	if w.pairs == nil {
		w.pairs = make(map[Pair]int)
		w.segs = make(map[Segment]int)
	}
	tr := v.Trace()
	w.last.Reset(v)
	clear(w.pairs)
	clear(w.segs)
	var prev Comm
	havePrev := false
	for i, n := 0, tr.Len(); i < n; i++ {
		if !v.Shared(i) {
			continue
		}
		ins, isWrite := tr.InsAt(i), tr.IsWriteAt(i)
		cur := lastAccess{ins: ins, thread: uint16(tr.ThreadAt(i)), write: isWrite, set: true}
		var first, pair trace.Ins // predecessor of the first / latest communication
		haveFirst, havePair := false, false
		id, second := v.WordsAt(i)
		for b, end := tr.AddrAt(i), tr.EndAt(i); b < end; id = second {
			// One cell per byte, or one for all eight bytes of a word only
			// ever accessed whole, whose bytes share one predecessor.
			cells, n, _ := w.last.At(id, b, end)
			for k := range cells {
				p := &cells[k]
				if p.set && p.thread != cur.thread && (p.write || isWrite) {
					if !haveFirst {
						first, haveFirst = p.ins, true
					}
					// Adjacent bytes mostly share a predecessor: skip the
					// map for a pair just recorded.
					if wantPairs && !(havePair && p.ins == pair) {
						pair, havePair = p.ins, true
						w.pairs[Pair{First: pair, Second: ins}] = 1
					}
				}
				*p = cur
			}
			b += n
		}
		if !wantSegs || !haveFirst {
			continue
		}
		comm := Comm{Write: trace.RegionOf(first), Read: trace.RegionOf(ins)}
		if havePrev && comm == prev {
			continue
		}
		if havePrev {
			w.segs[Segment{First: prev, Second: comm}] = 1
		}
		prev, havePrev = comm, true
	}
}
