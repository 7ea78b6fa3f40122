package sched

import (
	"testing"

	"snowboard/internal/corpus"
	"snowboard/internal/detect"
	"snowboard/internal/exec"
	"snowboard/internal/kernel"
	"snowboard/internal/pmc"
	"snowboard/internal/trace"
)

func l2tpWriterProg() *corpus.Prog {
	return &corpus.Prog{Calls: []corpus.Call{
		{Nr: kernel.SysSocketNr, Args: []corpus.Arg{corpus.Const(kernel.AFPppox), corpus.Const(kernel.SockDgram), corpus.Const(kernel.PxProtoOL2TP)}},
		{Nr: kernel.SysSocketNr, Args: []corpus.Arg{corpus.Const(kernel.AFInet), corpus.Const(kernel.SockDgram), corpus.Const(0)}},
		{Nr: kernel.SysConnectNr, Args: []corpus.Arg{corpus.Result(0), corpus.Const(1), corpus.Result(1)}},
	}}
}

func l2tpReaderProg() *corpus.Prog {
	p := l2tpWriterProg()
	p.Calls = append(p.Calls, corpus.Call{
		Nr:   kernel.SysSendmsgNr,
		Args: []corpus.Arg{corpus.Result(0), corpus.Const(512)},
	})
	return p
}

// identifyL2TP profiles the two Figure 1 tests and returns the PMC whose
// write is the RCU list publication and whose read is the tunnel lookup.
func identifyL2TP(t *testing.T, env *exec.Env) (*pmc.Set, pmc.PMC) {
	t.Helper()
	progs := []*corpus.Prog{l2tpWriterProg(), l2tpReaderProg()}
	var profiles []pmc.Profile
	for i, p := range progs {
		accs, df, res := env.Profile(p)
		if res.Crashed() {
			t.Fatalf("profiling crashed: %v", res.Faults)
		}
		profiles = append(profiles, pmc.Profile{TestID: i, Accesses: accs, DFLeader: df})
	}
	set := pmc.Identify(profiles, pmc.DefaultOptions())
	if set.Len() == 0 {
		t.Fatal("no PMCs identified")
	}
	pubIns := trace.DefIns("l2tp_tunnel_register:list_add_rcu")
	getIns := trace.DefIns("l2tp_tunnel_get:rcu_dereference_list")
	for key := range set.Entries {
		if key.Write.Ins == pubIns && key.Read.Ins == getIns {
			return set, key
		}
	}
	t.Fatalf("expected l2tp publication PMC not identified among %d PMCs", set.Len())
	return nil, pmc.PMC{}
}

func TestIdentifyFindsL2TPPublicationPMC(t *testing.T) {
	env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	_, hint := identifyL2TP(t, env)
	if hint.Write.Val == 0 {
		t.Fatalf("publication PMC writes a null pointer? %v", hint)
	}
	if hint.Read.Val == hint.Write.Val {
		t.Fatalf("PMC read and write values must differ: %v", hint)
	}
}

func TestSnowboardExposesL2TPBug(t *testing.T) {
	env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	set, hint := identifyL2TP(t, env)
	x := &Explorer{
		Env:       env,
		Trials:    64,
		Seed:      1,
		Mode:      ModeSnowboard,
		Detect:    detect.DefaultOptions(),
		KnownPMCs: set,
	}
	out := x.Explore(ConcurrentTest{
		Writer: l2tpWriterProg(),
		Reader: l2tpReaderProg(),
		Hint:   &hint,
		Pair:   pmc.Pair{Writer: 0, Reader: 1},
	})
	if len(out.Issues) == 0 {
		t.Fatalf("no issues found in %d trials", out.Trials)
	}
	var got12 bool
	for _, is := range out.Issues {
		if is.BugID == 12 && is.Kind == detect.KindPanic {
			got12 = true
		}
	}
	if !got12 {
		t.Fatalf("issue #12 not exposed; found: %+v", out.Issues)
	}
	if !out.Exercised {
		t.Fatal("PMC channel never exercised despite exposing the bug")
	}
	t.Logf("snowboard exposed #12 on trial %d (exercised on %d)", out.ExposedTrial, out.ExercisedTrial)
}

func TestL2TPBugAbsentIn5_3(t *testing.T) {
	env := exec.NewEnv(kernel.Config{Version: kernel.V5_3_10})
	// The PMC still exists in 5.3.10 (registration still publishes), but no
	// interleaving crashes, because sock is initialized before publication.
	progs := []*corpus.Prog{l2tpWriterProg(), l2tpReaderProg()}
	var profiles []pmc.Profile
	for i, p := range progs {
		accs, df, res := env.Profile(p)
		if res.Crashed() {
			t.Fatalf("profiling crashed: %v", res.Faults)
		}
		profiles = append(profiles, pmc.Profile{TestID: i, Accesses: accs, DFLeader: df})
	}
	set := pmc.Identify(profiles, pmc.DefaultOptions())
	pubIns := trace.DefIns("l2tp_tunnel_register:list_add_rcu")
	var hint *pmc.PMC
	for key := range set.Entries {
		if key.Write.Ins == pubIns {
			h := key
			hint = &h
			break
		}
	}
	if hint == nil {
		t.Fatal("publication PMC missing in 5.3.10")
	}
	x := &Explorer{Env: env, Trials: 64, Seed: 1, Mode: ModeSnowboard, Detect: detect.DefaultOptions(), KnownPMCs: set}
	out := x.Explore(ConcurrentTest{Writer: l2tpWriterProg(), Reader: l2tpReaderProg(), Hint: hint})
	for _, is := range out.Issues {
		if is.Kind == detect.KindPanic {
			t.Fatalf("unexpected panic in fixed kernel: %+v", is)
		}
	}
}

func TestSnowboardBeatsSKIOnTrialsToExpose(t *testing.T) {
	// Count trials until the actual kernel panic (issue #12), the paper's
	// "interleavings needed to expose the concurrency bug" metric (§5.4).
	trialsFor := func(mode Mode, seed int64) int {
		env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
		set, hint := identifyL2TP(t, env)
		x := &Explorer{Env: env, Trials: 512, Seed: seed, Mode: mode, Detect: detect.DefaultOptions(), KnownPMCs: set}
		out := x.Explore(ConcurrentTest{Writer: l2tpWriterProg(), Reader: l2tpReaderProg(), Hint: &hint})
		for _, is := range out.Issues {
			if is.BugID == 12 && is.Kind == detect.KindPanic {
				return out.TrialOf(is) + 1
			}
		}
		return x.Trials + 1 // never exposed
	}
	sb, ski := 0, 0
	const rounds = 5
	for seed := int64(1); seed <= rounds; seed++ {
		sb += trialsFor(ModeSnowboard, seed)
		ski += trialsFor(ModeSKI, seed)
	}
	t.Logf("mean trials to expose #12 panic: snowboard=%.1f ski=%.1f", float64(sb)/rounds, float64(ski)/rounds)
	if sb > ski {
		t.Fatalf("snowboard (%d) needed more trials than SKI (%d)", sb, ski)
	}
}
