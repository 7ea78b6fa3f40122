package sched

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"snowboard/internal/detect"
	"snowboard/internal/exec"
	"snowboard/internal/kernel"
	"snowboard/internal/trace"
)

var updateGolden = flag.Bool("update-repro-golden", false, "re-record testdata/repro_golden.json (only ever at a commit whose index numbering is the reference)")

// reproGolden is one recorded trial and what replaying it must give.
type reproGolden struct {
	Name     string `json:"name"`
	State    string `json:"state"` // a ReproState exactly as it was serialized
	Accesses int    `json:"accesses"`
	Trace    string `json:"trace_sha256"`
	Switches []int  `json:"switch_events"`
	Crashed  bool   `json:"crashed"`
}

// traceDigest hashes every field of the trace but the lockset id, which is
// interned per process.
func traceDigest(tr *trace.Trace) string {
	h := sha256.New()
	for i := 0; i < tr.Len(); i++ {
		a := tr.At(i)
		fmt.Fprintf(h, "%d %d %d %x %d %x %t %t %t %t\n", a.Thread, a.Ins, a.Kind, a.Addr, a.Size, a.Val, a.Atomic, a.Marked, a.Stack, a.RCU)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestReproStateGolden replays two ReproStates serialized by the commit
// before the scheduler stopped being consulted on every access — the trial
// that crashes the Figure 1 kernel, as recorded, and the same trial with
// decisions flipped at a preemption, next to one, and on an access nothing
// watches — and requires the trace and the preemption points that commit
// got. FlipAt, SwitchEvents and ReproState.Flips are indices in one
// numbering, the accesses offered to the scheduler; this pins it.
func TestReproStateGolden(t *testing.T) {
	const path = "testdata/repro_golden.json"
	env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	defer env.Close()
	set, hint := identifyL2TP(t, env)
	ct := ConcurrentTest{Writer: l2tpWriterProg(), Reader: l2tpReaderProg(), Hint: &hint}
	replay := func(g *reproGolden) {
		var st ReproState
		if err := json.Unmarshal([]byte(g.State), &st); err != nil {
			t.Fatal(err)
		}
		var tr trace.Trace
		res, switches := ReplayRecorded(env, ct, &st, &tr)
		env.M.SetTrace(nil)
		g.Accesses, g.Trace, g.Switches, g.Crashed = tr.Len(), traceDigest(&tr), slices.Clone(switches), res.Crashed()
	}
	if *updateGolden {
		x := &Explorer{Env: env, Trials: 512, Seed: 1, Mode: ModeSnowboard, Detect: detect.DefaultOptions(), KnownPMCs: set}
		out := x.Explore(ct)
		if out.Repro == nil || len(out.Repro.Flags) == 0 {
			t.Fatalf("nothing worth recording: %+v", out.Repro)
		}
		plain := reproGolden{Name: "plain"}
		blob, _ := json.Marshal(out.Repro)
		plain.State = string(blob)
		replay(&plain)
		if len(plain.Switches) < 2 {
			t.Fatalf("the recorded trial preempts %d times", len(plain.Switches))
		}
		st := *out.Repro
		st.Flips = []int{3, plain.Switches[0], plain.Switches[1] + 1}
		flipped := reproGolden{Name: "flips"}
		blob, _ = json.Marshal(&st)
		flipped.State = string(blob)
		replay(&flipped)
		blob, _ = json.MarshalIndent([]reproGolden{plain, flipped}, "", "  ")
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var golden []reproGolden
	if err := json.Unmarshal(blob, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) != 2 || strings.Contains(golden[0].State, `"flips"`) || !strings.Contains(golden[1].State, `"flips"`) {
		t.Fatalf("want one plain state and one with flips, have %d", len(golden))
	}
	for _, want := range golden {
		got := want
		replay(&got)
		if got.Accesses != want.Accesses || got.Trace != want.Trace || !slices.Equal(got.Switches, want.Switches) || got.Crashed != want.Crashed {
			t.Errorf("%s: replayed to %d accesses, trace %.12s, preemptions %v, crashed %t\nrecorded    %d accesses, trace %.12s, preemptions %v, crashed %t",
				want.Name, got.Accesses, got.Trace, got.Switches, got.Crashed, want.Accesses, want.Trace, want.Switches, want.Crashed)
		}
		// The serialized form itself: no field, order or meaning may move.
		var st ReproState
		if err := json.Unmarshal([]byte(want.State), &st); err != nil {
			t.Fatal(err)
		}
		if again, _ := json.Marshal(&st); string(again) != want.State {
			t.Errorf("%s: ReproState re-serializes as\n%s\nrecorded\n%s", want.Name, again, want.State)
		}
	}
}
