package sched

import (
	"encoding/json"
	"reflect"
	"testing"

	"snowboard/internal/detect"
	"snowboard/internal/exec"
	"snowboard/internal/kernel"
	"snowboard/internal/pmc"
	"snowboard/internal/trace"
)

// TestReplayReproducesL2TPPanic exercises the §6 deterministic-reproduction
// path: explore until the Figure 1 bug crashes the kernel, then replay the
// recorded trial repeatedly and observe the identical panic every time.
func TestReplayReproducesL2TPPanic(t *testing.T) {
	env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	set, hint := identifyL2TP(t, env)
	x := &Explorer{Env: env, Trials: 512, Seed: 1, Mode: ModeSnowboard, Detect: detect.DefaultOptions(), KnownPMCs: set}
	ct := ConcurrentTest{Writer: l2tpWriterProg(), Reader: l2tpReaderProg(), Hint: &hint}
	out := x.Explore(ct)
	if out.Repro == nil {
		t.Fatalf("no repro state recorded; issues: %+v", out.Issues)
	}
	for i := 0; i < 3; i++ {
		var tr trace.Trace
		res := Replay(env, ct, out.Repro, &tr)
		env.M.SetTrace(nil)
		if !res.Crashed() {
			t.Fatalf("replay %d did not crash", i)
		}
		found := false
		for _, f := range res.Faults {
			if len(f) > 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("replay %d produced no fault message", i)
		}
	}
}

// TestReplayDeterministicTrace verifies that two replays produce
// byte-identical traces.
func TestReplayDeterministicTrace(t *testing.T) {
	env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	set, hint := identifyL2TP(t, env)
	x := &Explorer{Env: env, Trials: 512, Seed: 1, Mode: ModeSnowboard, Detect: detect.DefaultOptions(), KnownPMCs: set}
	ct := ConcurrentTest{Writer: l2tpWriterProg(), Reader: l2tpReaderProg(), Hint: &hint}
	out := x.Explore(ct)
	if out.Repro == nil {
		t.Skip("no crash within budget")
	}
	var tr1, tr2 trace.Trace
	Replay(env, ct, out.Repro, &tr1)
	Replay(env, ct, out.Repro, &tr2)
	env.M.SetTrace(nil)
	if tr1.Len() != tr2.Len() {
		t.Fatalf("replay traces differ in length: %d vs %d", tr1.Len(), tr2.Len())
	}
	for i := 0; i < tr1.Len(); i++ {
		a, b := tr1.At(i), tr2.At(i)
		if a.Ins != b.Ins || a.Addr != b.Addr || a.Val != b.Val || a.Thread != b.Thread {
			t.Fatalf("replay diverged at access %d", i)
		}
	}
}

// TestReproStateFlipsRoundTrip checks that Flips survive the JSON encoding
// a Report's repro records go through, and that a Replayer, reused, loads
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
	var r Replayer
	if policy := r.load(&back); !reflect.DeepEqual(policy.FlipAt, st.Flips) {
		t.Fatalf("FlipAt rebuilt as %v, want %v", policy.FlipAt, st.Flips)
	}
	// The cursor wants them ascending and distinct, whatever order a state
	// lists them in; an index no access can have is dropped.
	if policy := r.load(&ReproState{Flips: []int{19, 2, -1, 7, 2}}); !reflect.DeepEqual(policy.FlipAt, st.Flips) {
		t.Fatalf("FlipAt rebuilt from an unsorted list as %v, want %v", policy.FlipAt, st.Flips)
	}
}

// TestReplayMutatedScheduleDeterministic replays a flip-carrying ReproState
// twice and requires byte-identical traces — a flipped trial is a pure
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
		t.Fatalf("flipped replay traces: %d vs %d accesses", tr1.Len(), tr2.Len())
	}
	for i := 0; i < tr1.Len(); i++ {
		a, b := tr1.At(i), tr2.At(i)
		if a.Ins != b.Ins || a.Addr != b.Addr || a.Val != b.Val || a.Thread != b.Thread {
			t.Fatalf("flipped replay diverged at access %d", i)
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
