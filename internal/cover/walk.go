package cover

import (
	"slices"

	"snowboard/internal/trace"
)

// Pred is a byte's coverage predecessor while a trace is walked: its last
// data access. Whoever keeps the walk's per-byte cells keeps one in each.
type Pred struct {
	ins    trace.Ins
	thread uint16
	write  bool
	set    bool
}

// Walker derives both concurrency metrics of a trial from one walk over its
// view's shared data accesses (trace.View.Shared), in trace order: Begin per
// access, Step per cell in address order (trace.WordCells), End. The
// happens-before oracle drives it on the Pred in its own cells when an
// explorer hands it one (detect.TrialInput.Cover), Walk on cells of its own
// otherwise; Fold adds the trial's distinct pairs and segments into the
// accumulators. The zero value is ready to use; not safe for concurrent use.
type Walker struct {
	view trace.View            // built by the standalone Coverage.AddTrace and Segments.AddTrace
	last trace.WordCells[Pred] // Walk's own cells

	cur   Pred        // the access being walked
	preds []trace.Ins // the predecessors it communicates with, in address order

	// The trial's distinct pairs (keyed First<<32 | Second, as Coverage
	// keys them) and segments, and its latest communication.
	seen     trace.Shadow[struct{}]
	pairs    []uint64
	segs     []Segment
	prev     Comm
	havePrev bool

	regions trace.Shadow[trace.Ins] // RegionOf by instruction, kept across trials
}

// reset starts a trial's walk.
func (w *Walker) reset() {
	w.seen.Reset()
	w.pairs, w.segs = w.pairs[:0], w.segs[:0]
	w.havePrev = false
}

// Begin starts the walk of a shared data access by thread at ins.
func (w *Walker) Begin(ins trace.Ins, thread int, write bool) {
	w.cur = Pred{ins: ins, thread: uint16(thread), write: write, set: true}
	w.preds = w.preds[:0]
}

// Step applies the current access to one cell's predecessor: one of another
// thread communicates with it when at least one of the two is a write.
func (w *Walker) Step(p *Pred) {
	if p.set && p.thread != w.cur.thread && (p.write || w.cur.write) {
		w.preds = append(w.preds, p.ins)
	}
	*p = w.cur
}

// End finishes the current access: each communication covers its pair, and
// the first, abstracted to regions, follows the trial's previous one unless
// it repeats it — two consecutive distinct communications are a segment.
func (w *Walker) End() {
	if len(w.preds) != 0 {
		w.communicated()
	}
}

func (w *Walker) communicated() {
	for k, pred := range w.preds {
		if k > 0 && pred == w.preds[k-1] { // adjacent bytes mostly share one
			continue
		}
		n, k := w.seen.Len(), pairKey(pred, w.cur.ins)
		if w.seen.Slot(k); w.seen.Len() > n {
			w.pairs = append(w.pairs, k)
		}
	}
	comm := Comm{Write: w.regionOf(w.preds[0]), Read: w.regionOf(w.cur.ins)}
	if w.havePrev && comm == w.prev {
		return
	}
	// A trial has a few dozen distinct segments at most: a list is the set.
	if seg := (Segment{First: w.prev, Second: comm}); w.havePrev && !slices.Contains(w.segs, seg) {
		w.segs = append(w.segs, seg)
	}
	w.prev, w.havePrev = comm, true
}

func (w *Walker) regionOf(ins trace.Ins) trace.Ins {
	n := w.regions.Len()
	r := w.regions.Slot(uint64(ins))
	if w.regions.Len() > n {
		*r = trace.RegionOf(ins)
	}
	return *r
}

// Walk collects v's pairs and segments on the walker's own cells, skipping
// memory one thread alone touched: nothing there communicates.
func (w *Walker) Walk(v *trace.View) {
	tr := v.Trace()
	w.reset()
	w.last.Reset(v)
	for i, n := 0, tr.Len(); i < n; i++ {
		if !v.Shared(i) {
			continue
		}
		w.Begin(tr.InsAt(i), tr.ThreadAt(i), tr.IsWriteAt(i))
		id, second := v.WordsAt(i)
		for b, end := tr.AddrAt(i), tr.EndAt(i); b < end; id = second {
			cells, n, _ := w.last.At(id, b, end)
			for k := range cells {
				w.Step(&cells[k])
			}
			b += n
		}
		w.End()
	}
}

// Fold adds the trial's pairs and segments into c and s, either of which
// may be nil, returns how many of each were new to them, and readies the
// walker for the next trial.
func (w *Walker) Fold(c *Coverage, s *Segments) (freshPairs, freshSegs int) {
	defer w.reset()
	if c != nil {
		c.mu.Lock()
		freshPairs = c.add(w.pairs)
		c.mu.Unlock()
	}
	if s != nil {
		s.mu.Lock()
		freshSegs = s.addEach(w.segs)
		s.mu.Unlock()
	}
	return freshPairs, freshSegs
}
