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

// Segments accumulates interleaving segments across trials, each with its
// hit count: an open-addressed table over the segment's two
// communications. It is safe for concurrent use.
type Segments struct {
	mu    sync.Mutex
	slots []segSlot // a power of two of them, at most 3/4 used; nil while empty
	shift uint      // 64 - log2(len(slots))
	live  int       // used slots
	own   Walker    // scratch of the standalone AddTrace, guarded by mu
}

// segSlot is one table entry: a segment and its hit count, once used.
type segSlot struct {
	seg  Segment
	n    int
	used bool
}

// segMinSlots is the first table size: a test's own accumulator holds a
// handful of segments (a median of six on bench hunt), a few dozen at most.
const segMinSlots = 8

// NewSegments returns an empty accumulator.
func NewSegments() *Segments { return &Segments{} }

// segHash mixes a segment's four instructions into the probe sequence's
// start (its top bits).
func segHash(seg Segment) uint64 {
	a := uint64(seg.First.Write)<<32 | uint64(seg.First.Read)
	b := uint64(seg.Second.Write)<<32 | uint64(seg.Second.Read)
	return (a*0x9E3779B97F4A7C15 ^ b) * 0xBF58476D1CE4E5B9
}

// index returns the slot holding seg, or the empty slot where it belongs.
// The table is never full, so the probe terminates.
func (s *Segments) index(seg Segment) int {
	mask := len(s.slots) - 1
	i := int(segHash(seg) >> s.shift)
	for s.slots[i].used && s.slots[i].seg != seg {
		i = (i + 1) & mask
	}
	return i
}

// slot returns seg's entry, inserting it with no hits when absent.
func (s *Segments) slot(seg Segment) *segSlot {
	if s.slots == nil {
		s.resize(segMinSlots)
	}
	sl := &s.slots[s.index(seg)]
	if sl.used {
		return sl
	}
	if 4*(s.live+1) > 3*len(s.slots) {
		s.resize(2 * len(s.slots))
		sl = &s.slots[s.index(seg)]
	}
	sl.seg, sl.used = seg, true
	s.live++
	return sl
}

// resize rehashes the used slots into a table of n slots (a power of two).
func (s *Segments) resize(n int) {
	old := s.slots
	s.slots = make([]segSlot, n)
	s.shift = 64
	for m := n; m > 1; m >>= 1 {
		s.shift--
	}
	for i := range old {
		if old[i].used {
			s.slots[s.index(old[i].seg)] = old[i]
		}
	}
}

// add adds n hits of seg and reports whether it had none before.
func (s *Segments) add(seg Segment, n int) bool {
	sl := s.slot(seg)
	fresh := sl.n == 0
	sl.n += n
	return fresh
}

// addEach adds one hit of each of segs, which are distinct, and returns
// how many had none before.
func (s *Segments) addEach(segs []Segment) int {
	fresh := 0
	for _, seg := range segs {
		if s.add(seg, 1) {
			fresh++
		}
	}
	return fresh
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
	return s.addEach(s.own.segs)
}

// Merge folds o's segments into s (counts add) and returns how many were
// new to s. Commutative and associative on the covered set, like
// Coverage.Merge.
func (s *Segments) Merge(o *Segments) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	fresh := 0
	for i := range o.slots {
		if sl := &o.slots[i]; sl.used && s.add(sl.seg, sl.n) {
			fresh++
		}
	}
	return fresh
}

// Len returns the number of distinct segments covered so far.
func (s *Segments) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// Export returns the accumulator's entries in canonical (sorted) order,
// for persistence into the artifact store.
func (s *Segments) Export() []SegmentCount {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SegmentCount, 0, s.live)
	for i := range s.slots {
		if sl := &s.slots[i]; sl.used {
			out = append(out, SegmentCount{Seg: sl.seg, N: sl.n})
		}
	}
	sort.Slice(out, func(i, j int) bool { return segLess(out[i].Seg, out[j].Seg) })
	return out
}

// ImportSegments rebuilds an accumulator from exported entries; of two
// entries for one segment, the later one's count holds.
func ImportSegments(entries []SegmentCount) *Segments {
	s := NewSegments()
	for _, e := range entries {
		s.slot(e.Seg).n = e.N
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
