// Package cover implements concurrency coverage metrics for trial
// executions. The primary metric is Krace-style *alias instruction-pair
// coverage* (the paper discusses it in §2.1 and finds its own
// instruction-pair clustering "consistent with the use of instruction-pair
// coverage to guide search in Krace", §5.3.1): an ordered pair of
// instructions (w, r) is covered when thread A's access at w is directly
// followed — on the same memory — by thread B's access at r. Accumulated
// across trials, the metric measures how much genuinely concurrent behavior
// a testing campaign has explored, independently of whether bugs fired.
package cover

import (
	"cmp"
	"slices"
	"sync"

	"snowboard/internal/trace"
)

// Pair is an ordered cross-thread instruction pair on overlapping memory.
type Pair struct {
	First  trace.Ins
	Second trace.Ins
}

// Coverage accumulates alias instruction pairs across trials: a flat set
// keyed First<<32 | Second, the way Edges keys an edge. It is safe for
// concurrent use.
type Coverage struct {
	mu  sync.Mutex
	set trace.Shadow[struct{}]
	own Walker // scratch of the standalone AddTrace, guarded by mu
}

// New returns an empty accumulator.
func New() *Coverage { return &Coverage{} }

func pairKey(first, second trace.Ins) uint64 { return uint64(first)<<32 | uint64(second) }

// add puts keys in the set and returns how many were new to it.
func (c *Coverage) add(keys []uint64) int {
	before := c.set.Len()
	for _, k := range keys {
		c.set.Slot(k)
	}
	return c.set.Len() - before
}

// AddTrace folds one trial trace in and returns how many *new* pairs it
// contributed. For every memory byte, consecutive accesses by different
// threads (at least one being a write — read/read orderings carry no
// communication) contribute their instruction pair.
func (c *Coverage) AddTrace(tr *trace.Trace) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.own.view.Build(tr)
	c.own.Walk(&c.own.view)
	return c.add(c.own.pairs)
}

// Merge folds o's accumulated pairs into c and returns how many were new
// to c. Per-worker accumulators merged in any order yield the same set as
// one shared accumulator. o is not modified; merging an accumulator into
// itself is not supported.
func (c *Coverage) Merge(o *Coverage) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	before := c.set.Len()
	for k := range o.set.All() {
		c.set.Slot(k)
	}
	return c.set.Len() - before
}

// AddPairs folds ps in and returns how many were new to c.
func (c *Coverage) AddPairs(ps []Pair) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	before := c.set.Len()
	for _, p := range ps {
		c.set.Slot(pairKey(p.First, p.Second))
	}
	return c.set.Len() - before
}

// Pairs returns the covered pairs in order (First, then Second), nil when
// there are none.
func (c *Coverage) Pairs() []Pair {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.set.Len() == 0 {
		return nil
	}
	out := make([]Pair, 0, c.set.Len())
	for k := range c.set.All() {
		out = append(out, Pair{First: trace.Ins(k >> 32), Second: trace.Ins(k)})
	}
	slices.SortFunc(out, func(a, b Pair) int {
		return cmp.Or(cmp.Compare(a.First, b.First), cmp.Compare(a.Second, b.Second))
	})
	return out
}

// Reset empties c, keeping its storage.
func (c *Coverage) Reset() {
	c.mu.Lock()
	c.set.Reset()
	c.mu.Unlock()
}

// Len returns the number of distinct pairs covered so far.
func (c *Coverage) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.set.Len()
}
