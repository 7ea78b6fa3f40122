package main

import (
	"math"
	"sort"
)

// summary describes a set of timing samples the way the metrics guide asks:
// the median with its quartiles and sample count, plus the highest
// percentile that still has ten samples beyond it (absent below n = 20).
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Tail is the percentile rank (e.g. 95) Value belongs to; 0 when the
	// sample is too small to state one.
	Tail      float64 `json:"tail_pct,omitempty"`
	TailValue float64 `json:"tail_value,omitempty"`
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailRank returns the highest percentile of n samples that has at least
// ten samples beyond it, or 0 when n < 20.
func tailRank(n int) float64 {
	if n < 20 {
		return 0
	}
	return 100 * float64(n-10) / float64(n)
}

func summarize(v []float64) summary {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	out := summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
	if p := tailRank(len(s)); p > 0 {
		out.Tail = p
		out.TailValue = s[len(s)-11]
	}
	return out
}
