package sched

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"snowboard/internal/cover"
	"snowboard/internal/detect"
	"snowboard/internal/exec"
	"snowboard/internal/kernel"
	"snowboard/internal/pmc"
	"snowboard/internal/trace"
	"snowboard/internal/vm"
)

// ranTrial is what a trial's run leaves that its analysis reads, and the
// preemptions the Snowboard policy counted and the draws it logged (stale in
// the other modes).
type ranTrial struct {
	log             []vm.Decision
	rows            []trace.Access
	console, fsck   []string
	hung, deadlock  bool
	steps, switches int
	draws           []uint8
}

// ranOf captures the run x's guest just made, for its scratch's observer.
func ranOf(x *Explorer, res exec.Result) ranTrial {
	tr := &x.scratch.tr
	got := ranTrial{
		log:     slices.Clone(x.Env.M.Decisions()),
		console: res.Console,
		fsck:    x.Env.K.FsckHost(),
		hung:    res.Hung, deadlock: res.Deadlock,
		steps: res.Steps, switches: x.scratch.policy.Switches,
		draws: slices.Clone(x.scratch.memo.trial),
	}
	for k := 0; k < tr.Len(); k++ {
		got.rows = append(got.rows, tr.At(k))
	}
	return got
}

// TestEqualSchedulesEqualTrials guards the key of the explorer's trial memo
// (vm.Machine.Decisions): over real tests of two seeds, in every mode, any
// two trials of one test whose decision logs are equal must have run alike —
// equal trace rows, console, fsck output, Hung, Deadlock and Steps — since
// the memo answers the second with the first's analysis. A console finding
// ends a test, so a crashing trial never repeats with every oracle on: the
// last arm turns the console oracle off and explores the Figure 1 test,
// whose trials can crash the kernel, so that equal logs are checked on
// crashed trials too. Each arm must meet such pairs often enough for the
// check to mean something, and the memo must answer exactly the trials
// that repeat an earlier one's decisions: sched.trials_repeated counts a
// trial predicted from its draws too, and under the observer that trial
// still runs its guest, so it is checked like any other repeat.
func TestEqualSchedulesEqualTrials(t *testing.T) {
	all := detect.DefaultOptions()
	arms := []memoArm{
		{name: "snowboard", mode: ModeSnowboard, opts: all, floor: 150},
		{name: "ski", mode: ModeSKI, opts: all, floor: 80},
		{name: "random-walk", mode: ModeRandomWalk, opts: all, floor: 15},
	}
	for _, seed := range []int64{3, 7} {
		env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
		set, tests := realTests(t, env, seed)
		for a := range arms {
			for i, ct := range tests {
				arms[a].explore(t, env, set, ct, seed*1000+int64(i))
			}
		}
		env.Close()
	}
	figure1 := memoArm{name: "figure 1, console oracle off", mode: ModeSnowboard,
		opts: detect.Options{Races: true, TornReads: true}, trialsPerTest: 64, floor: 15, eventfulFloor: 5}
	env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	set, hint := identifyL2TP(t, env)
	ct := ConcurrentTest{Writer: l2tpWriterProg(), Reader: l2tpReaderProg(), Hint: &hint}
	for seed := int64(1); seed <= 40; seed++ {
		figure1.explore(t, env, set, ct, seed)
	}
	env.Close()
	for _, arm := range append(arms, figure1) {
		t.Logf("%s: %d trials, %d pairs with equal decisions checked, %d of them with console or fsck lines, hung or deadlocked",
			arm.name, arm.trials, arm.checked, arm.eventful)
		if arm.checked < arm.floor || arm.eventful < arm.eventfulFloor {
			t.Errorf("%s: %d pairs (%d eventful) checked, want at least %d (%d)", arm.name, arm.checked, arm.eventful, arm.floor, arm.eventfulFloor)
		}
		if arm.answered != arm.checked {
			t.Errorf("%s: the memo answered %d trials, but %d repeated an earlier trial's decisions", arm.name, arm.answered, arm.checked)
		}
	}
}

// memoArm is one exploration setting of TestEqualSchedulesEqualTrials and
// its tally.
type memoArm struct {
	name string
	mode Mode
	opts detect.Options

	trialsPerTest int // 0: 24

	floor, eventfulFloor      int // pairs the arm must check, and of them eventful ones
	trials, checked, eventful int
	answered                  int // trials the memo answered (sched.trials_repeated)
}

// explore runs ct's trials and compares each with the earlier trial of the
// same decisions, if any.
func (arm *memoArm) explore(t *testing.T, env *exec.Env, set *pmc.Set, ct ConcurrentTest, seed int64) {
	x := &Explorer{Env: env, Trials: cmp.Or(arm.trialsPerTest, 24), Seed: seed, Mode: arm.mode, Detect: arm.opts,
		KnownPMCs: set, Coverage: cover.New(), TrackSegments: true,
		Fsck: func() []string { return env.K.FsckHost() }}
	var ran []ranTrial
	x.scratchFor().ran = func(res exec.Result, _ *memoKey) {
		arm.trials++
		got := ranOf(x, res)
		for k := range ran {
			if slices.Equal(ran[k].log, got.log) {
				if diff := ran[k].diff(&got); diff != "" {
					t.Fatalf("%s, seed %d: trials %d and %d made the same %d decisions but differ in %s",
						arm.name, seed, k, len(ran), len(got.log), diff)
				}
				arm.checked++
				if len(got.console)+len(got.fsck) > 0 || got.hung || got.deadlock {
					arm.eventful++
				}
				break
			}
		}
		ran = append(ran, got)
	}
	repeated := mRepeated.Value()
	x.Explore(ct)
	arm.answered += int(mRepeated.Value() - repeated)
}

// diff names the first way o's run differs from r's, or returns "".
func (r *ranTrial) diff(o *ranTrial) string {
	switch {
	case r.steps != o.steps:
		return fmt.Sprintf("steps (%d, %d)", r.steps, o.steps)
	case r.hung != o.hung || r.deadlock != o.deadlock:
		return fmt.Sprintf("hung/deadlock (%t/%t, %t/%t)", r.hung, r.deadlock, o.hung, o.deadlock)
	case !slices.Equal(r.rows, o.rows):
		return fmt.Sprintf("trace rows (%d, %d of them)", len(r.rows), len(o.rows))
	case !slices.Equal(r.console, o.console):
		return fmt.Sprintf("console (%q, %q)", r.console, o.console)
	case !slices.Equal(r.fsck, o.fsck):
		return fmt.Sprintf("fsck (%q, %q)", r.fsck, o.fsck)
	}
	return ""
}

// TestEqualDrawsEqualTrials guards the memo's other key (memoKey): a
// Snowboard trial whose reseeded rng draws a key's decisive outcomes — start
// pick and the switch coins tossed while another thread could run — from
// the key's flag count and PMC-set size is counted as the key's trial
// without running its guest, so it must be that trial. With an observer
// set, a predicted trial runs its guest anyway, and the run must equal its
// key trial's in decision log, trace rows, console, fsck, Hung, Deadlock
// and Steps, and the key must hold those Steps. Its Switches must be the
// count predict derived: the key's decisive switches and those its own solo
// coins asked for, which may differ from the key trial's. Its draws must be
// the key trial's at the same points, marked solo alike, and equal at every
// decisive one, and at every solo one too if the key trial ran
// livenessWindow steps. The arms are the real tests of two seeds with every
// oracle on, each with no PMC to adopt (as on hunt's spec, where every
// cluster has its own test) and together adopting from the whole set, so
// that the set under test grows; and the Figure 1 test with the console
// oracle off, whose trials can crash the kernel. Each arm must predict often
// enough, and often enough with solo outcomes other than its key's, for the
// check to mean something, and the counter must count exactly the
// predicted trials.
func TestEqualDrawsEqualTrials(t *testing.T) {
	all := detect.DefaultOptions()
	adopting := &drawArm{name: "seeds 3 and 7, adopting", opts: all, floor: 139, soloFloor: 80}
	var arms []*drawArm
	for _, seed := range []int64{3, 7} {
		arm := &drawArm{name: fmt.Sprintf("seed %d", seed), opts: all,
			floor: map[int64]int{3: 565, 7: 477}[seed], soloFloor: map[int64]int{3: 90, 7: 120}[seed]}
		env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
		set, tests := realTests(t, env, seed)
		for i, ct := range tests {
			arm.explore(t, env, nil, ct, seed*1000+int64(i))
			adopting.explore(t, env, set, ct, seed*1000+int64(i))
		}
		env.Close()
		arms = append(arms, arm)
	}
	figure1 := &drawArm{name: "figure 1, console oracle off", opts: detect.Options{Races: true, TornReads: true},
		trialsPerTest: 64, floor: 1329, soloFloor: 450, eventfulFloor: 5}
	env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	_, hint := identifyL2TP(t, env)
	ct := ConcurrentTest{Writer: l2tpWriterProg(), Reader: l2tpReaderProg(), Hint: &hint}
	for seed := int64(1); seed <= 40; seed++ {
		figure1.explore(t, env, nil, ct, seed)
	}
	env.Close()
	for _, arm := range append(arms, adopting, figure1) {
		t.Logf("%s: %d trials, %d predicted from their draws and checked against their key's, %d of them with other solo outcomes, %d with console or fsck lines, hung or deadlocked; longest key trial %d steps",
			arm.name, arm.trials, arm.predicted, arm.solo, arm.eventful, arm.longest)
		if arm.predicted < arm.floor || arm.solo < arm.soloFloor || arm.eventful < arm.eventfulFloor {
			t.Errorf("%s: %d predicted trials (%d with other solo outcomes, %d eventful) checked, want at least %d (%d, %d)",
				arm.name, arm.predicted, arm.solo, arm.eventful, arm.floor, arm.soloFloor, arm.eventfulFloor)
		}
		if arm.counted != arm.predicted {
			t.Errorf("%s: sched.trials_predicted counted %d trials, but %d were predicted", arm.name, arm.counted, arm.predicted)
		}
	}
}

// drawArm is one exploration setting of TestEqualDrawsEqualTrials and its
// tally.
type drawArm struct {
	name          string
	opts          detect.Options
	trialsPerTest int // 0: 24

	// predicted trials the arm must check, of them those whose solo
	// outcomes differ from their key's, and eventful ones
	floor, soloFloor, eventfulFloor   int
	trials, predicted, solo, eventful int
	longest                           int // the most steps a predicted trial's key took
	counted                           int // sched.trials_predicted
}

// explore runs ct's trials in Snowboard mode, adopting from known, and
// compares each predicted trial's run with its key trial's.
func (arm *drawArm) explore(t *testing.T, env *exec.Env, known *pmc.Set, ct ConcurrentTest, seed int64) {
	x := &Explorer{Env: env, Trials: cmp.Or(arm.trialsPerTest, 24), Seed: seed, Mode: ModeSnowboard, Detect: arm.opts,
		KnownPMCs: known, Coverage: cover.New(), TrackSegments: true,
		Fsck: func() []string { return env.K.FsckHost() }}
	var ran []ranTrial
	x.scratchFor().ran = func(res exec.Result, k *memoKey) {
		arm.trials++
		got := ranOf(x, res)
		if k != nil {
			key := &ran[k.trial]
			ok, solo := drawsMatch(key.draws, got.draws, key.steps >= livenessWindow)
			switch {
			case !slices.Equal(key.log, got.log):
				t.Fatalf("%s, seed %d: trial %d drew trial %d's outcomes but made other decisions (%d, %d of them)",
					arm.name, seed, len(ran), k.trial, len(key.log), len(got.log))
			case !ok:
				t.Fatalf("%s, seed %d: trial %d was predicted from trial %d's draws, but drew %v against %v",
					arm.name, seed, len(ran), k.trial, got.draws, key.draws)
			case k.switches != got.switches:
				t.Fatalf("%s, seed %d: trial %d drew trial %d's outcomes but switched %d times, that trial %d, the explorer derived %d",
					arm.name, seed, len(ran), k.trial, got.switches, key.switches, k.switches)
			case k.steps != got.steps:
				t.Fatalf("%s, seed %d: trial %d took %d steps, its key holds %d", arm.name, seed, len(ran), got.steps, k.steps)
			}
			if diff := key.diff(&got); diff != "" {
				t.Fatalf("%s, seed %d: trial %d drew trial %d's outcomes but differs in %s", arm.name, seed, len(ran), k.trial, diff)
			}
			arm.predicted++
			arm.solo += btoi(solo)
			arm.longest = max(arm.longest, key.steps)
			if len(got.console)+len(got.fsck) > 0 || got.hung || got.deadlock {
				arm.eventful++
			}
		}
		ran = append(ran, got)
	}
	predicted := mPredicted.Value()
	x.Explore(ct)
	arm.counted += int(mPredicted.Value() - predicted)
}

// TestLongKeysMatchSoloCoins forces what no trial of the arms above does: a
// key trial that runs a liveness window out. Thread 0 takes a lock and
// yields, thread 1 blocks on it, and thread 0's PMC access tosses a coin
// while no other thread can run. Whether that solo coin asks for a switch
// moves the start of the window by one access, so the liveness force that
// lets thread 1 back in lands one access apart: trials whose decisive draws
// agree run differently. So such a key must match its solo coins too. Under
// the explorer's memo loop, every trial predicted must run as its key trial
// did, and trials that differ from a long key's only at solo coins, and run
// differently, must occur.
func TestLongKeysMatchSoloCoins(t *testing.T) {
	const lock = uint64(scriptData + 0x800)
	hint := scriptHint()
	sc := script{
		{{op: 'l', ins: insLock, addr: lock}, {op: 'y'}, store(hint.Write.Ins, hint.Write.Addr),
			{op: 'u', ins: insLock, addr: lock}, load(insFiller, scriptData+0x300).times(livenessWindow + 10)},
		{{op: 'l', ins: insLock, addr: lock}, {op: 'u', ins: insLock, addr: lock}},
	}
	type run struct {
		rows     []trace.Access
		draws    []uint8
		switches int
	}
	var memo trialMemo
	var keyed []run
	flags := &flagSet{}
	predicted, apart := 0, 0
	for seed := int64(0); seed < 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pre := len(flags.list)
		k := memo.predict(rng, pre, 1)
		rng.Seed(seed)
		p := &SnowboardPolicy{}
		p.reset(rng, []pmc.PMC{hint}, flags)
		memo.record(p)
		tr, err := sc.run(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := run{draws: slices.Clone(memo.trial), switches: p.Switches}
		for i := 0; i < tr.Len(); i++ {
			got.rows = append(got.rows, tr.At(i))
		}
		if k != nil {
			if key := &keyed[k.trial]; !slices.Equal(key.rows, got.rows) || k.switches != got.switches {
				t.Fatalf("seed %d: predicted from key %d's draws %v, drew %v and ran otherwise (%d switches, derived %d)",
					seed, k.trial, key.draws, got.draws, got.switches, k.switches)
			}
			predicted++
			continue
		}
		for _, key := range keyed {
			if ok, solo := drawsMatch(key.draws, got.draws, false); ok && solo && !slices.Equal(key.rows, got.rows) {
				apart++
			}
		}
		if len(flags.list) == pre {
			memo.key(p, memoKey{flags: pre, pmcs: 1, steps: tr.Len(), switches: p.Switches, trial: len(keyed)})
			keyed = append(keyed, got)
		}
	}
	t.Logf("%d keys, %d trials predicted, %d trials apart from a key only at solo coins that ran otherwise", len(keyed), predicted, apart)
	if predicted == 0 || apart == 0 {
		t.Fatal("the case lost its teeth")
	}
}

// drawsMatch compares a predicted trial's logged draws with its key
// trial's: the same number, marked solo alike, and equal at every decisive
// one, and at every solo one too when exact. It also reports whether some
// solo outcome differs.
func drawsMatch(key, got []uint8, exact bool) (ok, soloDiffers bool) {
	if len(key) != len(got) {
		return false, false
	}
	for i, o := range key {
		switch {
		case o == got[i]:
		case o&soloDraw == 0 || got[i]&soloDraw == 0 || exact:
			return false, false
		default:
			soloDiffers = true
		}
	}
	return true, soloDiffers
}
