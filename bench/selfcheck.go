package main

import (
	"fmt"
	"io"
	"math"
)

// mallocTolerance is how far two runs of one seed may disagree on a unit's
// allocation count: map growth depends on the per-process hash seed.
const mallocTolerance = 0.01

// compareRuns lists how run b of a workload disagrees with run a of the same
// code and seed: a timing whose two values differ by more than its bound, or
// any exact count that differs at all.
func compareRuns(workload string, a, b childRun) []string {
	var diffs []string
	for _, m := range endToEnd {
		va, vb := a.Result.Metrics[m.Name].Value, b.Result.Metrics[m.Name].Value
		if rel := math.Abs(vb-va) / math.Max(math.Abs(va), math.SmallestNonzeroFloat64); rel > m.Bound {
			diffs = append(diffs, fmt.Sprintf("%s %s: %.6g vs %.6g differ by %.1f%% (bound %.0f%%)",
				workload, m.Name, va, vb, 100*rel, 100*m.Bound))
		}
	}
	pa, pb := a.Report.Prefix, b.Report.Prefix
	if len(pa) != len(pb) {
		return append(diffs, fmt.Sprintf("%s: %d vs %d prefix units", workload, len(pa), len(pb)))
	}
	for i := range pa {
		ua, ub := pa[i], pb[i]
		if ua.Seed != ub.Seed || ua.Stable != ub.Stable || ua.Spent != ub.Spent ||
			ua.Issues != ub.Issues || ua.Segments != ub.Segments {
			diffs = append(diffs, fmt.Sprintf("%s unit %d: seed %d digest %s issues %d segments %d spent %+v vs seed %d digest %s issues %d segments %d spent %+v",
				workload, i, ua.Seed, ua.Stable, ua.Issues, ua.Segments, ua.Spent,
				ub.Seed, ub.Stable, ub.Issues, ub.Segments, ub.Spent))
		}
		if rel := math.Abs(float64(ub.Mallocs)-float64(ua.Mallocs)) / math.Max(float64(ua.Mallocs), 1); rel > mallocTolerance {
			diffs = append(diffs, fmt.Sprintf("%s unit %d: %d vs %d allocations", workload, i, ua.Mallocs, ub.Mallocs))
		}
	}
	return diffs
}

// selfcheck runs the end-to-end set twice and fails if the two disagree
// beyond the benchmark's own bounds. The two runs of a workload are
// adjacent, so that the host drifts as little as possible between them.
func selfcheck(cfg config, stdout io.Writer) error {
	a, b := make(map[string]childRun), make(map[string]childRun)
	var diffs []string
	fmt.Fprintf(stdout, "%-10s %-18s %14s %14s %8s %6s\n", "workload", "metric", "A", "B", "diff%", "bound%")
	for _, w := range workloads {
		ra, err := runChild(cfg, w.name, 0)
		if err != nil {
			return err
		}
		rb, err := runChild(cfg, w.name, 0)
		if err != nil {
			return err
		}
		a[w.name], b[w.name] = ra, rb
		for _, m := range endToEnd {
			va, vb := ra.Result.Metrics[m.Name].Value, rb.Result.Metrics[m.Name].Value
			fmt.Fprintf(stdout, "%-10s %-18s %14.6g %14.6g %+8.2f %6.0f\n",
				w.name, m.Name, va, vb, 100*ratio(vb-va, va), 100*m.Bound)
		}
		if !ra.Result.Correct || !rb.Result.Correct {
			diffs = append(diffs, fmt.Sprintf("%s: a run failed its own checks: %v %v", w.name, ra.Report.Problems, rb.Report.Problems))
		}
		diffs = append(diffs, compareRuns(w.name, ra, rb)...)
	}
	if err := printJSON(stdout, map[string]any{"header": newHeader(cfg), "a": a, "b": b, "differences": diffs}); err != nil {
		return err
	}
	if len(diffs) > 0 {
		return fmt.Errorf("A/A runs disagree: %v", diffs)
	}
	return nil
}
