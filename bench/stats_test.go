package main

import (
	"math"
	"testing"
)

func TestSummarizeQuartiles(t *testing.T) {
	// 1..9: median 5, quartiles at ranks 2 and 6 (0-based) by linear
	// interpolation, as Python's statistics.quantiles(method="inclusive").
	s := summarize([]float64{9, 1, 8, 2, 7, 3, 6, 4, 5})
	if s.N != 9 || s.Median != 5 || s.Q1 != 3 || s.Q3 != 7 {
		t.Fatalf("summary of 1..9 = %+v", s)
	}
	if s.Tail != 0 {
		t.Fatalf("9 samples cannot state a tail percentile, got p%v", s.Tail)
	}
	even := summarize([]float64{4, 1, 3, 2})
	if even.Median != 2.5 || even.Q1 != 1.75 || even.Q3 != 3.25 {
		t.Fatalf("summary of 1..4 = %+v", even)
	}
	if got := median(nil); got != 0 {
		t.Fatalf("median of nothing = %v", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		rank float64
	}{{19, 0}, {20, 50}, {100, 90}, {1000, 99}} {
		if got := tailRank(tc.n); math.Abs(got-tc.rank) > 1e-9 {
			t.Errorf("tailRank(%d) = %v, want %v", tc.n, got, tc.rank)
		}
	}
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	s := summarize(v)
	// p90 of 1..100 with ten samples (91..100) beyond it is 90.
	if s.Tail != 90 || s.TailValue != 90 {
		t.Fatalf("tail of 1..100 = p%v %v, want p90 90", s.Tail, s.TailValue)
	}
}
