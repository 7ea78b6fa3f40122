package cover

import "snowboard/internal/trace"

// Edges accumulates sequential edge coverage — the metric Syzkaller exports
// and Snowboard selects sequential tests by. An edge is a pair of
// consecutively executed access sites, keyed uint64(prev)<<32 | uint64(cur).
// Unlike the concurrency metrics, edges deliberately include stack and
// atomic accesses: sequential coverage cares about control flow, not
// communication.
//
// The set is a flat table with one writer and readers between writes:
// AddTrace and Add write; Missing, MissingAfter and Len only read (a
// Shadow's Probe writes nothing), so any number of goroutines may call
// them at once as long as no write is in flight.
type Edges struct {
	set trace.Shadow[struct{}]
}

// NewEdges returns an empty accumulator.
func NewEdges() *Edges { return &Edges{} }

func edgeKey(prev, cur trace.Ins) uint64 { return uint64(prev)<<32 | uint64(cur) }

// AddTrace folds one trace's edge set in, reporting how many were new.
func (c *Edges) AddTrace(tr *trace.Trace) int {
	before := c.set.Len()
	for i, n := 1, tr.Len(); i < n; i++ {
		c.set.Slot(edgeKey(tr.InsAt(i-1), tr.InsAt(i)))
	}
	return c.set.Len() - before
}

// Missing appends to dst the keys of tr's edges the set does not hold and
// returns it: nil when dst is nil and the trace adds nothing. An edge taken
// twice may appear twice, but not twice in a row: an edge that repeats the
// pair before it, as a loop over one site does, is probed once.
func (c *Edges) Missing(tr *trace.Trace, dst []uint64) []uint64 {
	if tr.Len() == 0 {
		return dst
	}
	return c.missing(tr.InsAt(0), tr, 1, dst)
}

// MissingAfter is Missing for a trace that continues a run whose last access
// was at site prev: the edge from prev into the trace's first access is
// probed too. With prev trace.NoIns it is Missing.
func (c *Edges) MissingAfter(prev trace.Ins, tr *trace.Trace, dst []uint64) []uint64 {
	if prev == trace.NoIns {
		return c.Missing(tr, dst)
	}
	return c.missing(prev, tr, 0, dst)
}

// missing probes the edges of tr from its access at from on, the first
// coming from site prev.
func (c *Edges) missing(prev trace.Ins, tr *trace.Trace, from int, dst []uint64) []uint64 {
	set := c.set.Probe()
	var probed uint64
	for i, n := from, tr.Len(); i < n; i++ {
		cur := tr.InsAt(i)
		k := edgeKey(prev, cur)
		prev = cur
		if i > from && k == probed {
			continue
		}
		probed = k
		if !set.Has(k) {
			dst = append(dst, k)
		}
	}
	return dst
}

// Add folds edge keys in, reporting how many were new.
func (c *Edges) Add(keys []uint64) int {
	before := c.set.Len()
	for _, k := range keys {
		c.set.Slot(k)
	}
	return c.set.Len() - before
}

// Len reports the accumulated edge count.
func (c *Edges) Len() int { return c.set.Len() }
