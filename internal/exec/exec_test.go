package exec

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"snowboard/internal/corpus"
	"snowboard/internal/kernel"
	"snowboard/internal/trace"
	"snowboard/internal/vm"
)

// l2tpWriterProg is Test 1 of the paper's Figure 1: create a PPPoX socket,
// a backing inet socket, and connect with tunnel id 1.
func l2tpWriterProg() *corpus.Prog {
	return &corpus.Prog{Calls: []corpus.Call{
		{Nr: kernel.SysSocketNr, Args: []corpus.Arg{corpus.Const(kernel.AFPppox), corpus.Const(kernel.SockDgram), corpus.Const(kernel.PxProtoOL2TP)}},
		{Nr: kernel.SysSocketNr, Args: []corpus.Arg{corpus.Const(kernel.AFInet), corpus.Const(kernel.SockDgram), corpus.Const(0)}},
		{Nr: kernel.SysConnectNr, Args: []corpus.Arg{corpus.Result(0), corpus.Const(1), corpus.Result(1)}},
	}}
}

// l2tpReaderProg is Test 2 of Figure 1: the same setup plus sendmsg.
func l2tpReaderProg() *corpus.Prog {
	p := l2tpWriterProg()
	p.Calls = append(p.Calls, corpus.Call{
		Nr:   kernel.SysSendmsgNr,
		Args: []corpus.Arg{corpus.Result(0), corpus.Const(512)},
	})
	return p
}

func TestSequentialL2TPNoCrash(t *testing.T) {
	env := NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	for _, prog := range []*corpus.Prog{l2tpWriterProg(), l2tpReaderProg()} {
		res := env.RunSequential(prog, nil)
		if res.Crashed() {
			t.Fatalf("sequential run crashed: %v", res.Faults)
		}
		for i, ret := range res.Rets[0] {
			if ret < 0 {
				t.Fatalf("call %d failed: %d", i, ret)
			}
		}
	}
}

func TestSequentialProfileCollectsSharedAccesses(t *testing.T) {
	env := NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	accs, _, res := env.Profile(l2tpReaderProg())
	if res.Crashed() {
		t.Fatalf("profile crashed: %v", res.Faults)
	}
	if accs.Len() == 0 {
		t.Fatal("no shared accesses profiled")
	}
	var sawPublishRead bool
	for _, a := range accs.Accesses() {
		if a.Stack {
			t.Fatalf("stack access leaked through filter: %+v", a)
		}
		if a.Atomic {
			t.Fatalf("lock-word access leaked through filter: %+v", a)
		}
		if a.Ins.Name() == "l2tp_tunnel_get:rcu_dereference_list" {
			sawPublishRead = true
		}
	}
	if !sawPublishRead {
		t.Fatal("profile missing the tunnel-list lookup read")
	}
}

// TestL2TPBugTriggersUnderAdversarialSchedule drives the Figure 1 order
// violation by hand: run the writer until it publishes the tunnel
// (list_add_rcu), then run the reader to completion. The reader must panic
// on the null tunnel->sock in the 5.12-rc3 build and survive in 5.3.10.
func TestL2TPBugTriggersUnderAdversarialSchedule(t *testing.T) {
	publishIns, ok := trace.LookupIns("l2tp_tunnel_register:list_add_rcu")
	if !ok {
		t.Fatal("publish instruction not registered")
	}
	for _, tc := range []struct {
		version   kernel.Version
		wantCrash bool
	}{
		{kernel.V5_12_RC3, true},
		{kernel.V5_3_10, false},
	} {
		env := NewEnv(kernel.Config{Version: tc.version})
		published := false
		sched := vm.FuncScheduler(func(m *vm.Machine, last *vm.Thread, ev vm.Event) *vm.Thread {
			if ev.Kind == vm.EvAccess && ev.Access.Ins == publishIns {
				published = true
			}
			runnable := m.Runnable()
			if len(runnable) == 0 {
				return nil
			}
			// Before publication: run the writer (thread 0). After: starve
			// the writer so the reader dereferences the half-built tunnel.
			want := 0
			if published {
				want = 1
			}
			for _, th := range runnable {
				if th.ID == want {
					return th
				}
			}
			return runnable[0]
		})
		res := env.RunPair(l2tpWriterProg(), l2tpReaderProg(), sched, nil)
		if tc.wantCrash {
			if !res.Crashed() {
				t.Fatalf("%s: expected null-deref panic, got none (console: %v)", tc.version, res.Console)
			}
			found := false
			for _, f := range res.Faults {
				if strings.Contains(f, "NULL pointer dereference") {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s: crash was not a null deref: %v", tc.version, res.Faults)
			}
		} else if res.Crashed() {
			t.Fatalf("%s: unexpected crash: %v", tc.version, res.Faults)
		}
	}
}

func TestSnapshotIsolationAcrossRuns(t *testing.T) {
	env := NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	prog := l2tpReaderProg()
	var first, second trace.Trace
	r1 := env.RunSequential(prog, &first)
	r2 := env.RunSequential(prog, &second)
	if r1.Crashed() || r2.Crashed() {
		t.Fatalf("crash: %v %v", r1.Faults, r2.Faults)
	}
	if first.Len() != second.Len() {
		t.Fatalf("runs from same snapshot differ in length: %d vs %d", first.Len(), second.Len())
	}
	for i := 0; i < first.Len(); i++ {
		a, b := first.At(i), second.At(i)
		if a != b {
			t.Fatalf("access %d differs across identical runs:\n%+v\n%+v", i, a, b)
		}
	}
}

func TestPairDuplicateL2TPSequentialOrderIsSafe(t *testing.T) {
	env := NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	// Run writer fully, then reader (SeqScheduler): reader finds the fully
	// initialized tunnel, so no crash even in the buggy build.
	res := env.RunPair(l2tpWriterProg(), l2tpReaderProg(), vm.SeqScheduler{}, nil)
	if res.Crashed() {
		t.Fatalf("sequentialized pair crashed: %v", res.Faults)
	}
}

func TestMaxStepsHang(t *testing.T) {
	env := NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	env.MaxSteps = 10 // far too small for any test
	res := env.RunSequential(l2tpReaderProg(), nil)
	if !res.Hung {
		t.Fatal("step-limited run not reported as hung")
	}
}

func TestCloneProfilesMatchOriginal(t *testing.T) {
	env := NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	clone := env.Clone()
	prog := l2tpReaderProg()
	want, _, wres := env.Profile(prog)
	got, _, gres := clone.Profile(prog)
	if wres.Crashed() || gres.Crashed() {
		t.Fatalf("profile crashed: %v / %v", wres.Faults, gres.Faults)
	}
	if want.Len() == 0 || got.Len() != want.Len() {
		t.Fatalf("clone profiled %d accesses, original %d", got.Len(), want.Len())
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("clone profile differs from original")
	}
}

// Clones share the boot snapshot copy-on-write; running them from separate
// goroutines must be race-free and bit-identical (run under -race in CI).
func TestClonesRunConcurrently(t *testing.T) {
	env := NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	prog := l2tpReaderProg()
	want, _, _ := env.Profile(prog)

	const n = 4
	results := make([]trace.Block, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		clone := env.Clone()
		go func(i int) {
			accs, _, _ := clone.Profile(prog)
			results[i] = accs
			done <- i
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for i, accs := range results {
		if accs.Len() != want.Len() {
			t.Fatalf("clone %d profiled %d accesses, want %d", i, accs.Len(), want.Len())
		}
		if !reflect.DeepEqual(accs, want) {
			t.Fatalf("clone %d profile differs from original", i)
		}
	}
}

// fd0Prog uses descriptor 0 without opening anything: every call must fail
// with EBADF, unless a descriptor table leaked in from an earlier run.
func fd0Prog() *corpus.Prog {
	return &corpus.Prog{Calls: []corpus.Call{
		{Nr: kernel.SysSendmsgNr, Args: []corpus.Arg{corpus.Const(0), corpus.Const(512)}},
		{Nr: kernel.SysCloseNr, Args: []corpus.Arg{corpus.Const(0)}},
		{Nr: kernel.SysConnectNr, Args: []corpus.Arg{corpus.Const(0), corpus.Const(1), corpus.Const(1)}},
	}}
}

// roundRobin is a fresh scheduler that alternates between the runnable
// threads at every event.
func roundRobin() vm.Scheduler {
	i := 0
	return vm.FuncScheduler(func(m *vm.Machine, last *vm.Thread, ev vm.Event) *vm.Thread {
		r := m.Runnable()
		i++
		return r[i%len(r)]
	})
}

// sameResult compares two results by content: a thread without return
// values has nil rets on a fresh Env and empty ones on a used Env.
func sameResult(a, b Result) bool {
	return slices.EqualFunc(a.Rets, b.Rets, slices.Equal[[]int64]) &&
		slices.Equal(a.Faults, b.Faults) && slices.Equal(a.Console, b.Console) &&
		a.Steps == b.Steps && a.Hung == b.Hung && a.Deadlock == b.Deadlock
}

// TestRunStorageIsolated holds an Env that has run anything before — more
// threads, open descriptors, runs cut short with their bodies killed — to a
// freshly booted one: a run borrows the Env's storage, and nothing of the
// previous borrower may show in rets, trace or result.
func TestRunStorageIsolated(t *testing.T) {
	cfg := kernel.Config{Version: kernel.V5_12_RC3}
	writer, reader := l2tpWriterProg(), l2tpReaderProg()

	// The first lock the reader takes, poisoned before the first pick as if
	// a thread that never releases it held it, blocks every thread that
	// wants it: the run ends in a deadlock.
	var lock uint64
	probe := NewEnv(cfg)
	var ptr trace.Trace
	probe.RunSequential(reader, &ptr)
	probe.Close()
	for i := 0; i < ptr.Len() && lock == 0; i++ {
		if a := ptr.At(i); a.Atomic && a.Kind == trace.Write && a.Val != 0 {
			lock = a.Addr
		}
	}
	if lock == 0 {
		t.Fatal("the reader takes no lock")
	}
	poisoned := func() vm.Scheduler {
		rr := roundRobin()
		return vm.FuncScheduler(func(m *vm.Machine, last *vm.Thread, ev vm.Event) *vm.Thread {
			if ev.Kind == vm.EvStart {
				m.Mem.Write(lock, 8, 99)
			}
			return rr.Pick(m, last, ev)
		})
	}

	steps := []struct {
		name string
		run  func(e *Env, tr *trace.Trace) Result
		want func(r Result) bool // what makes the step the case it claims to be
	}{
		{"opens descriptors", func(e *Env, tr *trace.Trace) Result { return e.RunSequential(reader, tr) },
			func(r Result) bool { return len(r.Rets[0]) == 4 && r.Rets[0][0] == 0 && r.Rets[0][1] == 1 }},
		{"fd 0 unopened", func(e *Env, tr *trace.Trace) Result { return e.RunSequential(fd0Prog(), tr) },
			func(r Result) bool {
				return len(r.Rets[0]) == 3 && r.Rets[0][0] < 0 && r.Rets[0][1] < 0 && r.Rets[0][2] < 0
			}},
		{"pair after sequential", func(e *Env, tr *trace.Trace) Result { return e.RunPair(fd0Prog(), writer, roundRobin(), tr) },
			func(r Result) bool { return len(r.Rets) == 2 && r.Rets[0][0] < 0 && len(r.Rets[1]) == 3 }},
		{"sequential after pair", func(e *Env, tr *trace.Trace) Result { return e.RunSequential(fd0Prog(), tr) },
			func(r Result) bool { return len(r.Rets) == 1 && r.Rets[0][1] < 0 }},
		{"step limit", func(e *Env, tr *trace.Trace) Result {
			e.MaxSteps = 60
			defer func() { e.MaxSteps = 0 }()
			return e.RunPair(reader, reader, roundRobin(), tr)
		}, func(r Result) bool { return r.Hung && len(r.Rets[0]) < 4 }},
		{"clean after step limit", func(e *Env, tr *trace.Trace) Result { return e.RunSequential(fd0Prog(), tr) },
			func(r Result) bool { return !r.Hung && len(r.Rets[0]) == 3 && r.Rets[0][0] < 0 }},
		{"deadlock", func(e *Env, tr *trace.Trace) Result { return e.RunPair(reader, reader, poisoned(), tr) },
			func(r Result) bool { return r.Deadlock && len(r.Rets[0]) < 4 && len(r.Rets[1]) < 4 }},
		{"clean after deadlock", func(e *Env, tr *trace.Trace) Result { return e.RunPair(writer, fd0Prog(), roundRobin(), tr) },
			func(r Result) bool { return !r.Deadlock && len(r.Rets[0]) == 3 && r.Rets[1][0] < 0 }},
	}

	env := NewEnv(cfg)
	defer env.Close()
	for _, s := range steps {
		var gotTr, wantTr trace.Trace
		got := s.run(env, &gotTr)
		fresh := NewEnv(cfg)
		want := s.run(fresh, &wantTr)
		fresh.Close()
		if !s.want(want) {
			t.Fatalf("%s: the fresh Env's run is not that case: %+v", s.name, want)
		}
		if !sameResult(got, want) {
			t.Fatalf("%s: result on the used Env\n%+v\non a fresh one\n%+v", s.name, got, want)
		}
		if gotTr.Len() != wantTr.Len() {
			t.Fatalf("%s: %d accesses on the used Env, %d on a fresh one", s.name, gotTr.Len(), wantTr.Len())
		}
		for i := 0; i < gotTr.Len(); i++ {
			if a, b := gotTr.At(i), wantTr.At(i); a != b {
				t.Fatalf("%s: access %d on the used Env\n%+v\non a fresh one\n%+v", s.name, i, a, b)
			}
		}
	}

	// A clone has slots of its own: its run leaves the original's Rets be.
	clone := env.Clone()
	defer clone.Close()
	res := env.RunSequential(reader, nil)
	kept := slices.Clone(res.Rets[0])
	if cres := clone.RunSequential(fd0Prog(), nil); cres.Rets[0][0] >= 0 {
		t.Fatalf("the clone's fd 0 is open: rets %v", cres.Rets[0])
	}
	if !slices.Equal(res.Rets[0], kept) {
		t.Fatalf("the clone's run rewrote the original's rets: %v, were %v", res.Rets[0], kept)
	}
}
