package triage

import (
	"sort"

	"snowboard/internal/sched"
)

// decision is one entry of the unified schedule decision set ddmin works
// over. The crashing schedule is produced by two kinds of decisions:
//
//   - Flip=true: an explicit ReproState.Flips entry (one a state recorded
//     by an older, schedule-mutating binary carries). Keeping it keeps the
//     flip; dropping it removes the flip and lets the scheduler's own roll
//     stand.
//   - Flip=false: a preemption the trial's deterministic scheduler rolled
//     on its own (recorded by sched.ReplayRecorded). Keeping it changes
//     nothing; dropping it *adds* a flip at that access index, which
//     inverts — i.e. suppresses — the roll.
//
// Either way a candidate keep-set maps to a plain Flips list, so every
// candidate is an ordinary ReproState replayed through the ordinary path.
type decision struct {
	Index int
	Flip  bool
}

// decisionSet builds the unified decision list from the state's explicit
// flips and the recorded preemption indices, sorted by access index. An
// index present in both lists is a flip decision only (the recorded switch
// at that index already is the flip's effect).
func decisionSet(flips, switches []int) []decision {
	isFlip := make(map[int]bool, len(flips))
	all := make([]decision, 0, len(flips)+len(switches))
	for _, idx := range flips {
		if isFlip[idx] {
			continue
		}
		isFlip[idx] = true
		all = append(all, decision{Index: idx, Flip: true})
	}
	for _, idx := range switches {
		if isFlip[idx] {
			continue
		}
		all = append(all, decision{Index: idx, Flip: false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Index < all[j].Index })
	return all
}

// flipsFor converts a keep-set (positions into all) to the Flips list of
// the candidate state: kept flip decisions stay flips, dropped preemption
// decisions become suppression flips.
func flipsFor(all []decision, keep []int) []int {
	kept := make(map[int]bool, len(keep))
	for _, pos := range keep {
		kept[pos] = true
	}
	var flips []int
	for pos, d := range all {
		if d.Flip == kept[pos] {
			flips = append(flips, d.Index)
		}
	}
	return flips
}

// candState clones base with the candidate flip list.
func candState(base *sched.ReproState, flips []int) *sched.ReproState {
	st := *base
	st.Flips = flips
	return &st
}

// without returns keep with position i removed.
func without(keep []int, i int) []int {
	out := make([]int, 0, len(keep)-1)
	out = append(out, keep[:i]...)
	return append(out, keep[i+1:]...)
}

// ddmin minimizes the schedule decision set with Zeller-style delta
// debugging (reduction to complements with granularity doubling), then a
// single-removal pass to a fixpoint. The budget caps the ddmin phase; the
// final pass always completes, so the returned keep-set is 1-minimal:
// dropping any single kept decision loses the crash signature. The full
// keep-set reproduces by construction (it replays the baseline schedule
// exactly), so the result is never larger than the original.
func (m *minimizer) ddmin(ct sched.ConcurrentTest, base *sched.ReproState, target Signature, all []decision) []int {
	cur := make([]int, len(all))
	for i := range all {
		cur[i] = i
	}
	test := func(keep []int) bool {
		return m.reproduces(ct, candState(base, flipsFor(all, keep)), target)
	}
	if len(cur) == 0 {
		return cur
	}
	// Cheap fast path: many crashes need no schedule intervention at all.
	if test(nil) {
		return nil
	}
	n := 2
	for len(cur) >= 2 && !m.exhausted() {
		chunk := (len(cur) + n - 1) / n
		reduced := false
		for start := 0; start < len(cur) && !m.exhausted(); start += chunk {
			end := start + chunk
			if end > len(cur) {
				end = len(cur)
			}
			comp := make([]int, 0, len(cur)-(end-start))
			comp = append(comp, cur[:start]...)
			comp = append(comp, cur[end:]...)
			if test(comp) {
				cur = comp
				n = n - 1
				if n < 2 {
					n = 2
				}
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(cur) {
				break
			}
			n *= 2
			if n > len(cur) {
				n = len(cur)
			}
		}
	}
	// 1-minimality pass: retry single removals until none reproduces.
	// Not budget-capped — the guarantee must hold unconditionally.
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur); i++ {
			if test(without(cur, i)) {
				cur = without(cur, i)
				changed = true
				break
			}
		}
	}
	return cur
}
