package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (spans inside the program are a later change). Times are nanoseconds
// since the recorder was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Trace  string `json:"trace"`  // unit id shared by every span of one unit
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// recorder keeps spans in memory; the traced pass is single-goroutine, so
// the open-span stack gives each new span its parent.
type recorder struct {
	t0    time.Time
	trace string
	spans []span
	open  []int // indexes into spans
}

func newRecorder(trace string) *recorder {
	return &recorder{t0: time.Now(), trace: trace}
}

// do times fn as a child of the innermost open span and returns its
// duration. A nil recorder only times: the untraced rounds run the same
// code without recording.
func (r *recorder) do(name string, fn func()) time.Duration {
	if r == nil {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	idx := len(r.spans)
	r.spans = append(r.spans, span{ID: idx + 1, Parent: parent, Trace: r.trace, Name: name})
	r.open = append(r.open, idx)
	start := time.Since(r.t0)
	fn()
	end := time.Since(r.t0)
	r.open = r.open[:len(r.open)-1]
	r.spans[idx].Start, r.spans[idx].End = int64(start), int64(end)
	return end - start
}

// total returns the summed duration and the count of spans called name.
func (r *recorder) total(name string) (time.Duration, int) {
	var sum time.Duration
	n := 0
	for i := range r.spans {
		if r.spans[i].Name == name {
			sum += time.Duration(r.spans[i].End - r.spans[i].Start)
			n++
		}
	}
	return sum, n
}

// selfTimes fills Self for every span: its duration minus the part of its
// interval that its direct children cover (overlapping children count once).
func selfTimes(spans []span) {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		ivs := kids[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered int64
		cur := s.Start
		for _, k := range ivs {
			lo, hi := k.lo, k.hi
			if lo < cur {
				lo = cur
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		s.Self = (s.End - s.Start) - covered
	}
}

// write stores the spans as one JSON object per line.
func (r *recorder) write(path string) error {
	selfTimes(r.spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
