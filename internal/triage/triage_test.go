package triage

import (
	"reflect"
	"runtime"
	"testing"

	"snowboard/internal/corpus"
	"snowboard/internal/detect"
	"snowboard/internal/exec"
	"snowboard/internal/kernel"
	"snowboard/internal/pmc"
	"snowboard/internal/sched"
	"snowboard/internal/trace"
)

// The Figure 1 L2TP fixture: racing tunnel registration against tunnel
// lookup exposes Table 2 issue #12 (a kernel NULL dereference) in 5.12-rc3.

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

// l2tpFinding explores the fixture until the crash and returns the env and
// the recorded finding, exactly as the pipeline would hand it to triage.
func l2tpFinding(t *testing.T, seed int64) (*exec.Env, Finding) {
	t.Helper()
	env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
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
	getIns := trace.DefIns("l2tp_tunnel_get:rcu_dereference_list")
	var hint *pmc.PMC
	for key := range set.Entries {
		if key.Write.Ins == pubIns && key.Read.Ins == getIns {
			h := key
			hint = &h
			break
		}
	}
	if hint == nil {
		t.Fatal("l2tp publication PMC not identified")
	}
	x := &sched.Explorer{Env: env, Trials: 512, Seed: seed, Mode: sched.ModeSnowboard, Detect: detect.DefaultOptions(), KnownPMCs: set}
	ct := sched.ConcurrentTest{Writer: l2tpWriterProg(), Reader: l2tpReaderProg(), Hint: hint}
	out := x.Explore(ct)
	if out.Repro == nil {
		t.Fatalf("seed %d: exploration recorded no repro state", seed)
	}
	return env, Finding{Test: ct, State: out.Repro, BugID: 12}
}

func TestMinimizeNeverGrowsAndReproduces(t *testing.T) {
	env, f := l2tpFinding(t, 1)
	res, err := Minimize(env, f, Options{Detect: detect.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Signature.Kind != "panic" || res.Signature.Site != "table2:12" {
		t.Fatalf("unexpected signature: %+v", res.Signature)
	}
	s := res.Stats
	if s.DecisionsMin > s.DecisionsOrig || s.WriterCallsMin > s.WriterCallsOrig || s.ReaderCallsMin > s.ReaderCallsOrig {
		t.Fatalf("minimized artifacts grew: %+v", s)
	}
	if len(res.Test.Writer.Calls) != s.WriterCallsMin || len(res.Test.Reader.Calls) != s.ReaderCallsMin {
		t.Fatalf("stats disagree with the minimized programs: %+v", s)
	}
	// The minimized finding replays to the same signature in a fresh env.
	env2 := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	m := &minimizer{env: env2, opt: Options{Detect: detect.DefaultOptions()}}
	if !m.reproduces(res.Test, res.State, res.Signature) {
		t.Fatal("minimized finding does not reproduce in a fresh environment")
	}
	// Minimization is a fixpoint: re-triaging the minimized finding
	// shrinks nothing further.
	res2, err := Minimize(env, Finding{Test: res.Test, State: res.State, BugID: 12}, Options{Detect: detect.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.WriterCallsMin != s.WriterCallsMin || res2.Stats.ReaderCallsMin != s.ReaderCallsMin {
		t.Fatalf("re-minimization shrank the programs further: %+v then %+v", s, res2.Stats)
	}
}

// TestWarmReplayAllocBudget: a minimizer's replays after the first reuse
// its replayer — policy, rng source and flag set — and its trace, so a
// warm replay allocates what the run's result needs: under 1 KB, fewer
// bytes than a fresh lazyrand source alone (about 4.9 KB) or the trace's
// regrowth. Reuse carries nothing over either: replays of two states in
// turn judge, switch and trace as fresh ones do.
func TestWarmReplayAllocBudget(t *testing.T) {
	env, f := l2tpFinding(t, 1)
	m := &minimizer{env: env, opt: Options{Detect: detect.DefaultOptions()}}
	events, _ := m.replayRecord(f.Test, f.State)
	all := decisionSet(f.State.Flips, events)
	states := []*sched.ReproState{f.State, candState(f.State, flipsFor(all, []int{0}))}
	for round := 0; round < 4; round++ {
		st := states[round%2]
		fresh := Replay(env, f.Test, st, m.opt.Detect)
		switches, issues := m.replayRecord(f.Test, st)
		if !reflect.DeepEqual(switches, fresh.Switches) || !reflect.DeepEqual(issues, fresh.Issues) {
			t.Fatalf("round %d: a warm replay switched at %v and found %v, a fresh one %v and %v",
				round, switches, issues, fresh.Switches, fresh.Issues)
		}
		if m.last.Trace.Len() != fresh.Trace.Len() {
			t.Fatalf("round %d: a warm replay traced %d accesses, a fresh one %d", round, m.last.Trace.Len(), fresh.Trace.Len())
		}
		for i := 0; i < fresh.Trace.Len(); i++ {
			if m.last.Trace.At(i) != fresh.Trace.At(i) {
				t.Fatalf("round %d: access %d is %v warm, %v fresh", round, i, m.last.Trace.At(i), fresh.Trace.At(i))
			}
		}
	}

	// The gate counts the replay itself: the verdict allocates what the
	// detector suite does, through a pool the race detector drains at
	// random.
	replay := func() {
		m.last.Result, m.last.Switches = m.rp.ReplayRecorded(env, f.Test, f.State, &m.last.Trace)
		env.M.SetTrace(nil)
	}
	const replays = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < replays; i++ {
		replay()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / replays; per >= 2048 {
		t.Fatalf("a warm replay allocates %d bytes, want under 2048", per)
	}
	if allocs := testing.AllocsPerRun(replays, replay); allocs > 20 {
		t.Fatalf("a warm replay allocates %.1f times, want at most 20", allocs)
	}
}

// TestScheduleOneMinimal is the ddmin property test: the kept decision set
// reproduces the crash, and removing any single kept decision loses the
// crash signature.
func TestScheduleOneMinimal(t *testing.T) {
	env, f := l2tpFinding(t, 1)
	m := &minimizer{env: env, opt: Options{Detect: detect.DefaultOptions()}}
	events, issues := m.replayRecord(f.Test, f.State)
	target, ok := SignatureOfIssues(issues, f.Test.Hint, f.BugID)
	if !ok {
		t.Fatal("fixture does not crash")
	}
	all := decisionSet(f.State.Flips, events)
	if len(all) == 0 {
		t.Fatal("empty decision set: the crash needs at least one preemption")
	}
	keep := m.ddmin(f.Test, f.State, target, all)
	if len(keep) > len(all) {
		t.Fatalf("ddmin grew the decision set: %d -> %d", len(all), len(keep))
	}
	// The kept set reproduces.
	if !m.reproduces(f.Test, candState(f.State, flipsFor(all, keep)), target) {
		t.Fatal("kept decision set does not reproduce the crash")
	}
	if len(keep) == 0 {
		t.Fatal("l2tp crash requires an interleaving, yet ddmin kept nothing")
	}
	// 1-minimality: dropping any single kept decision loses the signature.
	for i := range keep {
		cand := candState(f.State, flipsFor(all, without(keep, i)))
		if m.reproduces(f.Test, cand, target) {
			t.Fatalf("kept decision %d (of %d) is redundant: schedule not 1-minimal", i, len(keep))
		}
	}
	t.Logf("decisions %d -> %d (1-minimal) in %d replays", len(all), len(keep), m.replays)
}

func TestDecisionSetAndFlips(t *testing.T) {
	all := decisionSet([]int{9, 3, 9}, []int{3, 5, 7})
	want := []decision{{3, true}, {5, false}, {7, false}, {9, true}}
	if !reflect.DeepEqual(all, want) {
		t.Fatalf("decisionSet: %+v", all)
	}
	// Keeping everything replays the original flips exactly.
	allPos := []int{0, 1, 2, 3}
	if got := flipsFor(all, allPos); !reflect.DeepEqual(got, []int{3, 9}) {
		t.Fatalf("full keep-set flips: %v", got)
	}
	// Keeping nothing drops the flips and suppresses every rolled switch.
	if got := flipsFor(all, nil); !reflect.DeepEqual(got, []int{5, 7}) {
		t.Fatalf("empty keep-set flips: %v", got)
	}
	// Mixed: keep the flip at 3 and the preemption at 5; drop the rest.
	if got := flipsFor(all, []int{0, 1}); !reflect.DeepEqual(got, []int{3, 7}) {
		t.Fatalf("mixed keep-set flips: %v", got)
	}
}

func TestDropCallRemapsRefs(t *testing.T) {
	p := l2tpReaderProg() // socket, socket, connect(r0,_,r1), sendmsg(r0,_)
	// Dropping the first socket must cascade to connect and sendmsg.
	q := dropCall(p, 0)
	if len(q.Calls) != 1 || q.Calls[0].Nr != kernel.SysSocketNr {
		t.Fatalf("drop call 0: %+v", q.Calls)
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	// Dropping the second socket cascades to connect but keeps sendmsg,
	// remapping its r0 reference.
	q = dropCall(p, 1)
	if len(q.Calls) != 2 {
		t.Fatalf("drop call 1: %+v", q.Calls)
	}
	if q.Calls[1].Nr != kernel.SysSendmsgNr || q.Calls[1].Args[0].Ref != 0 {
		t.Fatalf("sendmsg ref not remapped: %+v", q.Calls[1])
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	// Dropping the trailing call touches nothing else.
	q = dropCall(p, 3)
	if len(q.Calls) != 3 {
		t.Fatalf("drop call 3: %+v", q.Calls)
	}
}

func TestSignatureStability(t *testing.T) {
	// Classified issues signature by the Table 2 row and its mechanism
	// channel — independent of the hint that exposed them.
	isA := detect.Issue{Kind: detect.KindPanic, Desc: "BUG: kernel NULL pointer dereference at 0x0000beef", BugID: 12}
	sigA := SignatureOf(isA, nil)
	hintIns := trace.DefIns("l2tp_tunnel_register:list_add_rcu")
	sigB := SignatureOf(isA, &pmc.PMC{Write: pmc.Key{Ins: hintIns}})
	if sigA != sigB {
		t.Fatalf("classified signature depends on the hint: %+v vs %+v", sigA, sigB)
	}
	if sigA.Site != "table2:12" || sigA.Channel == "" {
		t.Fatalf("classified signature: %+v", sigA)
	}
	// Unclassified console issues normalize digits away.
	u1 := SignatureOf(detect.Issue{Kind: detect.KindIOError, Desc: "I/O error, dev sda, sector 1234"}, nil)
	u2 := SignatureOf(detect.Issue{Kind: detect.KindIOError, Desc: "I/O error, dev sda, sector 99"}, nil)
	if u1 != u2 {
		t.Fatalf("digit runs leak into the signature: %+v vs %+v", u1, u2)
	}
	if u1.Site != "I/O error, dev sda, sector #" {
		t.Fatalf("normalized site: %q", u1.Site)
	}
	if k := u1.Key(); k != "io-error|I/O error, dev sda, sector #|" {
		t.Fatalf("key: %q", k)
	}
}
