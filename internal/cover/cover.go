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
	"fmt"
	"sync"

	"snowboard/internal/trace"
)

// Pair is an ordered cross-thread instruction pair on overlapping memory.
type Pair struct {
	First  trace.Ins
	Second trace.Ins
}

// String renders the pair for reports.
func (p Pair) String() string {
	return fmt.Sprintf("%s -> %s", p.First.Name(), p.Second.Name())
}

// Coverage accumulates alias instruction pairs across trials. It is safe
// for concurrent use.
type Coverage struct {
	mu    sync.Mutex
	pairs map[Pair]int
	own   Walker // scratch of the standalone AddTrace, guarded by mu
}

// New returns an empty accumulator.
func New() *Coverage {
	return &Coverage{pairs: make(map[Pair]int)}
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
	return addEach(c.pairs, c.own.pairs)
}

// Merge folds o's accumulated pairs into c (counts add) and returns how
// many pairs were new to c. Per-worker accumulators merged in any order
// yield the same totals as one shared accumulator. o is not modified;
// merging an accumulator into itself is not supported.
func (c *Coverage) Merge(o *Coverage) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	return addCounts(c.pairs, o.pairs)
}

// Len returns the number of distinct pairs covered so far.
func (c *Coverage) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pairs)
}
