package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"snowboard/internal/exec"
	"snowboard/internal/kernel"
	"snowboard/internal/pmc"
	"snowboard/internal/trace"
	"snowboard/internal/vm"
)

// Scripted threads on a bare machine: what the real tests of two seeds do
// not do on demand — run a liveness window out, touch the stack between two
// particular accesses, block, run out of steps, run as thread 18 — goes
// through the same Thread.record as a real trial.

const (
	scriptData   = 0x10000
	scriptStacks = 0x400000
)

// step is one thing a scripted thread does.
type step struct {
	op   byte // r load, w store, s load from the thread's stack, y cpu_relax, l lock, u unlock
	ins  trace.Ins
	addr uint64
	n    int // how many times, 0 for once
}

func load(ins trace.Ins, addr uint64) step  { return step{op: 'r', ins: ins, addr: addr} }
func store(ins trace.Ins, addr uint64) step { return step{op: 'w', ins: ins, addr: addr} }
func (s step) times(n int) step             { s.n = n; return s }

// script is a machine's worth of threads: scripts[i] is thread i.
type script [][]step

// run executes the script under s, for at most maxSteps events (0 for no
// limit worth the name), and returns the trace and how the run ended.
func (sc script) run(s vm.Scheduler, maxSteps int) (*trace.Trace, error) {
	m := vm.NewMachine()
	defer m.Close()
	m.Mem.AddRegion("data", scriptData, scriptData+1<<16)
	m.Mem.AddRegion("stacks", scriptStacks, scriptStacks+uint64(len(sc))*trace.StackSize)
	tr := &trace.Trace{}
	m.SetTrace(tr)
	for i, steps := range sc {
		m.Spawn(fmt.Sprintf("script-%d", i), scriptStacks+uint64(i)*trace.StackSize, func(th *vm.Thread) {
			for _, st := range steps {
				for k := 0; k < max(1, st.n); k++ {
					switch st.op {
					case 'r':
						th.Load(st.ins, st.addr, 8)
					case 'w':
						th.Store(st.ins, st.addr, 8, 1)
					case 's':
						fp := th.PushFrame(8)
						th.Load(st.ins, fp, 8)
						th.PopFrame(8)
					case 'y':
						th.CPURelax()
					case 'l':
						th.Lock(st.ins, st.addr)
					case 'u':
						th.Unlock(st.ins, st.addr)
					}
				}
			}
		})
	}
	return tr, m.Run(s, maxSteps)
}

// consults wraps a trial scheduler and sorts the accesses it is asked about
// by why: a site it watches, the index it set as its deadline, or
// neither. With everything set the machine shows it every access, and it
// sorts them by whether the policy inside would have been asked.
type consults struct {
	trialScheduler
	everything bool
	maxSteps   int

	calls, watched, deadline, unasked int
	late                              int // calls made with the step budget spent
}

func (c *consults) Watch() *vm.Watch {
	w := c.trialScheduler.Watch()
	if c.everything {
		return &vm.Watch{}
	}
	return w
}

func (c *consults) OnAccess(m *vm.Machine, t *vm.Thread, a vm.AccessInfo) bool {
	c.calls++
	switch w := c.trialScheduler.Watch(); {
	case w.Sites.Has(a.Ins, a.Addr):
		c.watched++
	case a.Index >= w.Deadline:
		c.deadline++
	default:
		c.unasked++
	}
	c.late += btoi(c.maxSteps > 0 && m.Steps() >= c.maxSteps)
	return c.trialScheduler.OnAccess(m, t, a)
}

// scripted is one case of TestPolicyEqualsMapPolicy on a bare machine.
type scripted struct {
	name string
	run  func(t *testing.T)
}

var (
	insPred   = trace.DefIns("watch_test:pred")
	insFiller = trace.DefIns("watch_test:filler")
	insLock   = trace.DefIns("watch_test:lock")
)

// scriptHint is a PMC on the scripted machine's data region.
func scriptHint() pmc.PMC {
	return pmc.PMC{
		Write: pmc.Key{Ins: sIns1, Addr: scriptData + 0x100, Size: 8, Val: 1},
		Read:  pmc.Key{Ins: sIns2, Addr: scriptData + 0x100, Size: 8},
	}
}

func scriptedCases() []scripted {
	hint := scriptHint()
	pmcs := []pmc.PMC{hint}
	pmcWrite, pmcRead := store(hint.Write.Ins, hint.Write.Addr), load(hint.Read.Ins, hint.Read.Addr)
	pred := sig{kind: trace.Read, ins: insPred, addr: scriptData + 0x200, size: 8}
	filler := load(insFiller, scriptData+0x300)
	// pair runs the script once under each policy.
	pair := func(t *testing.T, sc script, seed int64, flags *flagSet, prevFlags map[sig]bool, flips []int, maxSteps int, want error) pairResult {
		t.Helper()
		return policyPair(t, "script", seed, pmcs, flags, prevFlags, flips, func(s trialScheduler) {
			if _, err := sc.run(s, maxSteps); !errors.Is(err, want) {
				t.Fatalf("the run ended with %v, want %v", err, want)
			}
		})
	}
	return []scripted{
		{"liveness force, nothing watched", func(t *testing.T) {
			// Two threads and not one access either is asked about on its
			// own account: the force must still land on the access that
			// completes each window, and the other thread must get to run.
			sc := script{{filler.times(2*livenessWindow + 10)}, {filler.times(10)}}
			for seed := int64(0); seed < 4; seed++ {
				got := pair(t, sc, seed, &flagSet{}, map[sig]bool{}, nil, 0, nil)
				first := got.policy.SwitchEvents[0]
				if first != livenessWindow-1 && first != livenessWindow+9 {
					t.Fatalf("seed %d: first preemption at %d, not where a window ends", seed, first)
				}
				if len(got.flags.list) != 0 || got.draws != 1 {
					t.Fatalf("seed %d: %d flags and %d draws in a trial with no PMC access", seed, len(got.flags.list), got.draws)
				}
			}
		}},
		{"yield and block restart the window", func(t *testing.T) {
			// Thread 0 takes the lock, runs most of a window and pauses;
			// thread 1 blocks on the lock at once. Both events restart the
			// window, so thread 0's next 3,000 accesses end no window, and
			// the only force is a window after the restart.
			const lock = uint64(scriptData + 0x800)
			sc := script{
				{{op: 'l', ins: insLock, addr: lock}, filler.times(3000), {op: 'y'}, filler.times(3000 + livenessWindow), {op: 'u', ins: insLock, addr: lock}},
				{{op: 'l', ins: insLock, addr: lock}, {op: 'u', ins: insLock, addr: lock}},
			}
			forced := false
			for seed := int64(0); seed < 4; seed++ {
				got := pair(t, sc, seed, &flagSet{}, map[sig]bool{}, nil, 0, nil)
				for _, at := range got.policy.SwitchEvents {
					if at < 3001+livenessWindow-1 {
						t.Fatalf("seed %d: forced at %d, inside a window the pause restarted", seed, at)
					}
					forced = true
				}
			}
			if !forced {
				t.Fatal("no seed ran a window out")
			}
		}},
		{"flag learned mid-trial fires on the next access", func(t *testing.T) {
			// The predecessor's instruction is not watched when the trial
			// starts. The PMC access makes it a flag, and its very next
			// execution must be asked about and fire: three draws in all —
			// the first pick, the PMC access, the flag.
			sc := script{{load(pred.ins, pred.addr), pmcWrite, load(pred.ins, pred.addr), filler, load(pred.ins, pred.addr)}}
			got := pair(t, sc, 1, &flagSet{}, map[sig]bool{}, nil, 0, nil)
			if !slices.Equal(got.flags.list, []sig{pred}) || got.draws != 3 {
				t.Fatalf("flags %v after %d draws, want the predecessor alone after 3", got.flags.list, got.draws)
			}
		}},
		{"stack access between predecessor and PMC access", func(t *testing.T) {
			sc := script{{load(pred.ins, pred.addr), {op: 's', ins: insFiller}, {op: 's', ins: insFiller}, pmcRead}}
			got := pair(t, sc, 1, &flagSet{}, map[sig]bool{}, nil, 0, nil)
			if !slices.Equal(got.flags.list, []sig{pred}) {
				t.Fatalf("flags %v, want the last access off the stack", got.flags.list)
			}
		}},
		{"thread 18 learns its flag", func(t *testing.T) {
			sc := make(script, 20)
			sc[18] = []step{load(pred.ins, pred.addr), pmcWrite}
			sc[3] = []step{filler.times(5)}
			got := pair(t, sc, 1, &flagSet{}, map[sig]bool{}, nil, 0, nil)
			if !slices.Equal(got.flags.list, []sig{pred}) {
				t.Fatalf("flags %v: the predecessor of thread 18's PMC access was not tracked", got.flags.list)
			}
		}},
		{"flips as a hand-written state lists them", func(t *testing.T) {
			// Out of order, twice, negative, past the end, next to each
			// other; most land on accesses nothing watches.
			sc := script{{filler.times(10), load(pred.ins, pred.addr), pmcWrite, filler.times(30)}, {filler.times(20), pmcRead, filler.times(20)}}
			flags, prevFlags := &flagSet{}, map[sig]bool{}
			pair(t, sc, 5, flags, prevFlags, nil, 0, nil)
			for seed := int64(0); seed < 8; seed++ {
				got := pair(t, sc, seed, flags, prevFlags, []int{40, 3, 11, 12, -1, 3, 1 << 30, 79, -7, 40}, 0, nil)
				if want := []int{3, 11, 12, 40, 79, 1 << 30}; !slices.Equal(got.policy.FlipAt, want) {
					t.Fatalf("FlipAt %v, want %v", got.policy.FlipAt, want)
				}
				if got.policy.nextFlip != 5 {
					t.Fatalf("seed %d: %d flips consumed by a trial of 83 accesses, want 5", seed, got.policy.nextFlip)
				}
			}
		}},
		{"step limit", func(t *testing.T) {
			// Both threads would run forever. The access that spends the
			// budget is not the scheduler's to see, whatever it watches.
			sc := script{{pmcWrite.times(1 << 20)}, {load(pred.ins, pred.addr), pmcRead.times(1 << 20)}}
			for seed := int64(0); seed < 4; seed++ {
				const maxSteps = 500
				pair(t, sc, seed, &flagSet{}, map[sig]bool{}, []int{maxSteps - 2, maxSteps - 1, maxSteps}, maxSteps, vm.ErrStepLimit)
				for _, everything := range []bool{false, true} {
					policy := &SnowboardPolicy{}
					policy.reset(rand.New(rand.NewSource(seed)), pmcs, &flagSet{})
					c := &consults{trialScheduler: policy, everything: everything, maxSteps: maxSteps}
					if _, err := sc.run(c, maxSteps); !errors.Is(err, vm.ErrStepLimit) || c.late != 0 || c.calls == 0 {
						t.Fatalf("seed %d: run ended with %v after %d calls, %d of them with the budget spent", seed, err, c.calls, c.late)
					}
				}
			}
		}},
	}
}

// TestPolicyFilterFalseHit forces what a campaign meets once in a few
// hundred accesses: two sites on one bit of the watch, one flagged and one
// not. The unflagged one is asked about, fails the exact lookup and
// must change nothing.
func TestPolicyFilterFalseHit(t *testing.T) {
	flagged := trace.DefIns("policy_test:flagged")
	twin := flagged + vm.SiteSetBits // same bit at the same address; never the predecessor of a PMC access
	hint := scriptHint()
	filler := load(insFiller, scriptData+0x300)
	// What a thread does next: reach a PMC access through the flagged
	// instruction, or run the twin — followed by a filler, so that no PMC
	// access ever comes right after it — at an address the flag also has.
	atoms := [][]step{
		{load(flagged, scriptData+0x200), store(hint.Write.Ins, hint.Write.Addr)},
		{load(flagged, scriptData+0x208), load(hint.Read.Ins, hint.Read.Addr)},
		{load(twin, scriptData+0x200), filler},
		{load(flagged, scriptData+0x210), filler},
		{{op: 's', ins: insFiller}},
	}
	flags, prevFlags := &flagSet{}, make(map[sig]bool)
	falseHits := 0
	for trial := 0; trial < 12; trial++ {
		gen := rand.New(rand.NewSource(int64(trial)))
		sc := make(script, 2)
		for th := range sc {
			for len(sc[th]) < 150 {
				sc[th] = append(sc[th], atoms[gen.Intn(len(atoms))]...)
			}
		}
		var flips []int
		if trial%3 == 2 {
			flips = []int{40, 3, 41, 299, 1000, 3} // as a hand-written state may list them
		}
		var tr *trace.Trace
		got := policyPair(t, fmt.Sprintf("trial %d", trial), int64(trial), []pmc.PMC{hint}, flags, prevFlags, flips, func(s trialScheduler) {
			var err error
			if tr, err = sc.run(s, 0); err != nil {
				t.Fatal(err)
			}
		})
		for i := 0; i < tr.Len(); i++ {
			falseHits += btoi(tr.InsAt(i) == twin && got.policy.watch.Sites.Has(twin, tr.AddrAt(i)))
		}
	}
	for _, f := range flags.list {
		if f.ins == twin {
			t.Fatalf("the twin got flagged: %v", f)
		}
	}
	if falseHits == 0 || len(flags.list) == 0 {
		t.Fatalf("%d accesses of the twin passed the filter, %d flags learned: the case was not forced", falseHits, len(flags.list))
	}
}

// TestSinkConsultedAtWatchPoints: in a trial the policy is asked about the
// accesses at sites it watches, the flips that fall elsewhere and the
// liveness forces — as many calls as a policy shown every access counts
// under those three heads, far fewer than there are accesses, and none it
// did not ask for. The baseline policies, which draw or count at every
// access, are asked about every access.
func TestSinkConsultedAtWatchPoints(t *testing.T) {
	env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	defer env.Close()
	_, hint := identifyL2TP(t, env)
	writer, reader := l2tpWriterProg(), l2tpReaderProg()
	var tr trace.Trace
	var calls, accesses, elsewhere int
	flags := &flagSet{}
	for trial := 0; trial < 16; trial++ {
		// Every other trial flips three decisions, wherever they fall.
		var flips []int
		if trial%2 == 1 {
			flips = []int{1, 5, 40}
		}
		var seen [2]*consults
		var switches [2][]int
		var learned [2]*flagSet
		for i, everything := range []bool{false, true} {
			st := snapshotRepro(int64(trial), trial, []pmc.PMC{hint}, flags.list)
			st.Flips = flips
			policy := &SnowboardPolicy{}
			learned[i] = &flagSet{}
			policy.loadState(st, rand.New(rand.NewSource(st.Seed)), learned[i])
			policy.RecordSwitches = true
			seen[i] = &consults{trialScheduler: policy, everything: everything}
			env.RunPair(writer, reader, seen[i], &tr)
			switches[i] = policy.SwitchEvents
		}
		env.M.SetTrace(nil)
		asked, shown := seen[0], seen[1]
		if shown.calls != tr.Len() {
			t.Fatalf("trial %d: shown %d of %d accesses with everything watched", trial, shown.calls, tr.Len())
		}
		if asked.unasked != 0 || asked.watched != shown.watched || asked.deadline != shown.deadline || asked.calls != shown.watched+shown.deadline {
			t.Fatalf("trial %d: asked about %d accesses (%d watched, %d at its deadline, %d neither); of all %d, %d are watched and %d at the deadline",
				trial, asked.calls, asked.watched, asked.deadline, asked.unasked, shown.calls, shown.watched, shown.deadline)
		}
		if !slices.Equal(switches[0], switches[1]) || !slices.Equal(learned[0].list, learned[1].list) {
			t.Fatalf("trial %d: preemptions %v and flags %v asked, %v and %v shown everything", trial, switches[0], learned[0].list, switches[1], learned[1].list)
		}
		calls, accesses, elsewhere = calls+asked.calls, accesses+tr.Len(), elsewhere+asked.deadline
		if flips == nil {
			flags = learned[0] // a mutated trial's flags are thrown away
		}
	}
	t.Logf("asked about %d of %d accesses, %d of them for a flip off the watched sites", calls, accesses, elsewhere)
	if calls*2 > accesses || elsewhere == 0 || len(flags.list) == 0 {
		t.Fatalf("asked about %d of %d accesses, %d for flips, %d flags: the watch narrows nothing or the case lost its teeth", calls, accesses, elsewhere, len(flags.list))
	}

	for _, mode := range []Mode{ModeSKI, ModeRandomWalk} {
		rng := rand.New(rand.NewSource(1))
		var s trialScheduler
		switch mode {
		case ModeSKI:
			s = NewSKIPolicy(rng, &hint)
		case ModeRandomWalk:
			s = NewRandomWalkPolicy(rng, 20)
		}
		c := &consults{trialScheduler: s}
		res := env.RunPair(writer, reader, c, &tr)
		env.M.SetTrace(nil)
		if res.Hung || c.calls != tr.Len() || c.unasked != 0 {
			t.Fatalf("%v: asked about %d of %d accesses (hung %t)", mode, c.calls, tr.Len(), res.Hung)
		}
	}
}

// TestFlagSetEqualsMapModel drives a flagSet and the two maps it replaced
// through the same adds, fires, trials and resets, over signatures that
// differ in one field only — size or kind among them — and enough of them
// to grow the index several times.
func TestFlagSetEqualsMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var universe []sig
	for _, ins := range []trace.Ins{7, 7 + vm.SiteSetBits, 0xfffffff0} {
		for addr := uint64(0); addr < 40; addr++ {
			for _, size := range []uint8{4, 8} {
				for _, kind := range []trace.Kind{trace.Read, trace.Write} {
					universe = append(universe, sig{addr: 0x1000 + addr*8, ins: ins, kind: kind, size: size})
				}
			}
		}
	}
	f := flagSet{trial: 1}
	flags, fired := map[sig]bool{}, map[sig]bool{}
	var order []sig
	check := func(what string) {
		t.Helper()
		if !slices.Equal(f.list, order) {
			t.Fatalf("%s: list %v, model learned %v", what, f.list, order)
		}
		for _, s := range universe {
			if e := f.probe(s); (e != nil && e.at != 0) != flags[s] {
				t.Fatalf("%s: probe(%v) = %+v, model %t", what, s, e, flags[s])
			}
		}
	}
	grown := 0
	for op := 0; op < 20000; op++ {
		s := universe[rng.Intn(len(universe))]
		switch r := rng.Intn(100); {
		case r < 30:
			slots := len(f.index)
			if got := f.add(s); got != !flags[s] {
				t.Fatalf("op %d: add(%v) = %t, model has it: %t", op, s, got, flags[s])
			}
			if !flags[s] {
				flags[s], order = true, append(order, s)
			}
			grown += btoi(len(f.index) > slots && slots > 0)
		case r < 90:
			want := flags[s] && !fired[s]
			if got := f.fire(s); got != want {
				t.Fatalf("op %d: fire(%v) = %t, model %t", op, s, got, want)
			}
			if want {
				fired[s] = true
			}
		case r < 99:
			f.trial++
			clear(fired)
		default:
			if op%3 == 0 {
				check(fmt.Sprintf("op %d, before a reset", op))
				f.reset(rng.Intn(3))
				f.trial++
				clear(flags)
				clear(fired)
				order = order[:0]
			}
		}
	}
	check("at the end")
	if grown < 3 {
		t.Fatalf("the index grew %d times: the model test never filled it", grown)
	}
}

// prevMutateFlips is mutateFlips as it was: a set of the flips as a map,
// toggled, and its keys sorted.
func prevMutateFlips(rng *rand.Rand, base, switches []int) []int {
	set := make(map[int]bool, len(base)+2)
	for _, f := range base {
		set[f] = true
	}
	n := 1 + rng.Intn(2)
	for k := 0; k < n; k++ {
		at := switches[rng.Intn(len(switches))] + rng.Intn(5) - 2
		if at < 0 {
			at = 0
		}
		if set[at] {
			delete(set, at)
		} else {
			set[at] = true
		}
	}
	out := make([]int, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Ints(out)
	return out
}

// TestMutateFlipsEqualsMapVersion: toggling in the sorted list gives the
// flips, and leaves the rng, exactly as toggling in a map and sorting did —
// through chains of mutations of mutations, as the explorer makes them,
// near index 0 where draws clamp and collide.
func TestMutateFlipsEqualsMapVersion(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		gen := rand.New(rand.NewSource(seed))
		switches := make([]int, 1+gen.Intn(4))
		for i := range switches {
			switches[i] = gen.Intn(12)
		}
		rng, prevRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		var base []int
		for round := 0; round < 12; round++ {
			got, want := mutateFlips(rng, base, switches), prevMutateFlips(prevRng, base, switches)
			if !slices.Equal(got, want) || rng.Int63() != prevRng.Int63() {
				t.Fatalf("seed %d round %d: flips %v from %v near %v, the map version %v", seed, round, got, base, switches, want)
			}
			if len(base) > 0 && len(got) > 0 && &got[0] == &base[0] {
				t.Fatalf("seed %d round %d: the mutated flips share the seed's storage", seed, round)
			}
			base = got
		}
	}
}
