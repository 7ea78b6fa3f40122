package sched

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"snowboard/internal/detect"
	"snowboard/internal/exec"
	"snowboard/internal/kernel"
	"snowboard/internal/pmc"
	"snowboard/internal/trace"
)

// TestMutateFlipsNearSwitches pins the mutation neighborhood: every derived
// flip is either inherited from the base set or lands within ±2 access
// events of one of the seed trial's recorded preemptions, and the result is
// sorted and duplicate-free.
func TestMutateFlipsNearSwitches(t *testing.T) {
	base := []int{50}
	switches := []int{10, 40}
	for seed := int64(0); seed < 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		out := mutateFlips(rng, base, switches)
		if !sort.IntsAreSorted(out) {
			t.Fatalf("seed %d: unsorted flips %v", seed, out)
		}
		seen := map[int]bool{}
		for _, f := range out {
			if seen[f] {
				t.Fatalf("seed %d: duplicate flip %d in %v", seed, f, out)
			}
			seen[f] = true
			if f == 50 {
				continue // inherited from base
			}
			near := false
			for _, s := range switches {
				if f >= s-2 && f <= s+2 {
					near = true
				}
			}
			if !near {
				t.Fatalf("seed %d: flip %d outside ±2 of any switch in %v", seed, f, out)
			}
		}
	}
}

// TestMutateFlipsTogglesXOR checks the XOR semantics: mutating onto an
// already-set flip removes it, so a second mutation can undo a harmful one.
func TestMutateFlipsTogglesXOR(t *testing.T) {
	// With switches = {10} and offsets in [8,12], a base flip at 10 is
	// removed whenever the draw lands exactly on it.
	removed := false
	for seed := int64(0); seed < 256 && !removed; seed++ {
		rng := rand.New(rand.NewSource(seed))
		out := mutateFlips(rng, []int{10}, []int{10})
		hit := false
		for _, f := range out {
			if f == 10 {
				hit = true
			}
		}
		removed = !hit
	}
	if !removed {
		t.Fatal("no seed in 256 ever toggled the base flip off — XOR semantics broken")
	}
}

// TestReproStateFlipsRoundTrip checks that Flips survive the JSON encoding
// a Report's repro records go through, and that policyFromState rebuilds
// the same FlipAt list.
func TestReproStateFlipsRoundTrip(t *testing.T) {
	st := &ReproState{Seed: 42, Trial: 3, Flips: []int{2, 7, 19}}
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back ReproState
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Flips, back.Flips) {
		t.Fatalf("flips changed across JSON: %v vs %v", st.Flips, back.Flips)
	}
	if policy := policyFromState(&back); !reflect.DeepEqual(policy.FlipAt, st.Flips) {
		t.Fatalf("FlipAt rebuilt as %v, want %v", policy.FlipAt, st.Flips)
	}
	// The cursor wants them ascending and distinct, whatever order a state
	// lists them in; an index no access can have is dropped.
	if policy := policyFromState(&ReproState{Flips: []int{19, 2, -1, 7, 2}}); !reflect.DeepEqual(policy.FlipAt, st.Flips) {
		t.Fatalf("FlipAt rebuilt from an unsorted list as %v, want %v", policy.FlipAt, st.Flips)
	}
}

// TestReplayMutatedScheduleDeterministic replays a flip-carrying ReproState
// twice and requires byte-identical traces — a mutated trial is a pure
// function of its state, exactly like a recorded one.
func TestReplayMutatedScheduleDeterministic(t *testing.T) {
	env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	set, hint := identifyL2TP(t, env)
	_ = set
	ct := ConcurrentTest{Writer: l2tpWriterProg(), Reader: l2tpReaderProg(), Hint: &hint}
	st := &ReproState{Seed: 42, PMCs: []pmc.PMC{hint}, Flips: []int{2, 7}}
	var tr1, tr2 trace.Trace
	Replay(env, ct, st, &tr1)
	Replay(env, ct, st, &tr2)
	env.M.SetTrace(nil)
	if tr1.Len() == 0 || tr1.Len() != tr2.Len() {
		t.Fatalf("mutated replay traces: %d vs %d accesses", tr1.Len(), tr2.Len())
	}
	for i := 0; i < tr1.Len(); i++ {
		a, b := tr1.At(i), tr2.At(i)
		if a.Ins != b.Ins || a.Addr != b.Addr || a.Val != b.Val || a.Thread != b.Thread {
			t.Fatalf("mutated replay diverged at access %d", i)
		}
	}
}

// TestFlipsChangeSchedule checks that FlipAt actually inverts scheduling
// decisions: the same trial with and without flips must interleave
// differently.
func TestFlipsChangeSchedule(t *testing.T) {
	env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	_, hint := identifyL2TP(t, env)
	ct := ConcurrentTest{Writer: l2tpWriterProg(), Reader: l2tpReaderProg(), Hint: &hint}
	run := func(flips []int) []int {
		st := &ReproState{Seed: 42, PMCs: []pmc.PMC{hint}, Flips: flips}
		var tr trace.Trace
		Replay(env, ct, st, &tr)
		env.M.SetTrace(nil)
		threads := make([]int, tr.Len())
		for i := 0; i < tr.Len(); i++ {
			threads[i] = tr.At(i).Thread
		}
		return threads
	}
	plain := run(nil)
	// Flip a decision early in the trial; at least one flip index inside
	// the trace must change the thread interleaving.
	changed := false
	for _, at := range []int{0, 1, 2, 3, 5, 8} {
		if !reflect.DeepEqual(plain, run([]int{at})) {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("no single flip changed the interleaving — FlipAt has no effect")
	}
}

// TestMutatedTrialsStayReplayable drives the explorer with mutation on and
// checks a crash found on a mutated trial still replays to the same crash.
func TestMutatedTrialsStayReplayable(t *testing.T) {
	env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	set, hint := identifyL2TP(t, env)
	x := &Explorer{
		Env: env, Trials: 512, Seed: 1, Mode: ModeSnowboard,
		Detect: detect.DefaultOptions(), KnownPMCs: set,
		TrackSegments: true, MutateSchedules: true,
	}
	out := x.Explore(ConcurrentTest{Writer: l2tpWriterProg(), Reader: l2tpReaderProg(), Hint: &hint})
	if out.Repro == nil {
		t.Skip("no crash within budget")
	}
	var tr trace.Trace
	res := Replay(env, ConcurrentTest{Writer: l2tpWriterProg(), Reader: l2tpReaderProg(), Hint: &hint}, out.Repro, &tr)
	env.M.SetTrace(nil)
	if !res.Crashed() {
		t.Fatal("recorded trial did not replay to a crash with mutation enabled")
	}
}
