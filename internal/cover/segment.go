package cover

import (
	"fmt"
	"sort"
	"sync"

	"snowboard/internal/trace"
)

// Comm is one cross-thread communication abstracted to subsystem level:
// the owning regions (trace.RegionOf) of the two instructions of an alias
// pair. Abstracting per subsystem keeps the segment space small enough to
// saturate while still distinguishing control-flow contexts that raw
// alias pairs collapse.
type Comm struct {
	Write trace.Ins `json:"w"`
	Read  trace.Ins `json:"r"`
}

// String renders the communication for reports.
func (c Comm) String() string {
	return fmt.Sprintf("%s=>%s", c.Write.Name(), c.Read.Name())
}

// Segment is a 2-gram of cross-thread communications: two alias-pair
// communications observed consecutively within one trial. This is the
// interleaving-segment metric SegFuzz-style feedback ranks schedules by —
// it captures *orderings between* communications, which single alias
// pairs are too context-free to express.
type Segment struct {
	First  Comm `json:"a"`
	Second Comm `json:"b"`
}

// String renders the segment for reports.
func (s Segment) String() string {
	return fmt.Sprintf("[%s ; %s]", s.First, s.Second)
}

// SegmentCount is one exported accumulator entry, used to persist segment
// state into the artifact store for byte-identical campaign resume.
type SegmentCount struct {
	Seg Segment `json:"seg"`
	N   int     `json:"n"`
}

// Segments accumulates interleaving segments across trials. It is safe
// for concurrent use.
type Segments struct {
	mu   sync.Mutex
	segs map[Segment]int
	own  Walker // scratch of the standalone AddTrace, guarded by mu
}

// NewSegments returns an empty accumulator.
func NewSegments() *Segments {
	return &Segments{segs: make(map[Segment]int)}
}

// AddTrace folds one trial trace in and returns how many *new* segments it
// contributed. The trace is walked exactly like Coverage.AddTrace to find
// cross-thread communications; each communication is abstracted to its
// region pair, consecutive duplicates are collapsed, and every ordered
// pair of consecutive distinct communications forms one segment.
func (s *Segments) AddTrace(tr *trace.Trace) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.own.view.Build(tr)
	s.own.Walk(&s.own.view)
	return addEach(s.segs, s.own.segs)
}

// Merge folds o's segments into s (counts add) and returns how many were
// new to s. Commutative and associative on the covered set, like
// Coverage.Merge.
func (s *Segments) Merge(o *Segments) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return addCounts(s.segs, o.segs)
}

// Len returns the number of distinct segments covered so far.
func (s *Segments) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.segs)
}

// Export returns the accumulator's entries in canonical (sorted) order,
// for persistence into the artifact store.
func (s *Segments) Export() []SegmentCount {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SegmentCount, 0, len(s.segs))
	for seg, n := range s.segs {
		out = append(out, SegmentCount{Seg: seg, N: n})
	}
	sort.Slice(out, func(i, j int) bool { return segLess(out[i].Seg, out[j].Seg) })
	return out
}

// ImportSegments rebuilds an accumulator from exported entries.
func ImportSegments(entries []SegmentCount) *Segments {
	s := NewSegments()
	for _, e := range entries {
		s.segs[e.Seg] = e.N
	}
	return s
}

func segLess(a, b Segment) bool {
	if a.First.Write != b.First.Write {
		return a.First.Write < b.First.Write
	}
	if a.First.Read != b.First.Read {
		return a.First.Read < b.First.Read
	}
	if a.Second.Write != b.Second.Write {
		return a.Second.Write < b.Second.Write
	}
	return a.Second.Read < b.Second.Read
}
