package sched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"snowboard/internal/cluster"
	"snowboard/internal/cover"
	"snowboard/internal/detect"
	"snowboard/internal/detect/model"
	"snowboard/internal/exec"
	"snowboard/internal/fuzz"
	"snowboard/internal/kernel"
	"snowboard/internal/pmc"
	"snowboard/internal/trace"
	"snowboard/internal/vm"
)

// unfusedExplore is Explorer.Explore (Snowboard mode) with every
// post-trial consumer on its own: the standalone coverage metrics,
// detect.Analyze and the incidental lookup each index the trace for
// themselves, the channel witness scans it, and every trial runs under
// the retained map policy below, asked about every access. It also returns
// the PMCs under test as the last trial ran, and shows every trial's trace
// to each, with the PMCs under test in it. TestRealTrialsEqualModel diffs
// each of these consumers against the model on every trial.
func unfusedExplore(x *Explorer, ct ConcurrentTest, each func(*trace.Trace, []pmc.PMC)) (Outcome, []pmc.PMC) {
	out := Outcome{ExercisedTrial: -1, ExposedTrial: -1}
	segs, pairs := cover.NewSegments(), cover.New()
	done := func(underTest []pmc.PMC) (Outcome, []pmc.PMC) {
		if segs.Len() > 0 {
			out.Segments = segs.Export()
		}
		out.Pairs = pairs.Pairs()
		return out, underTest
	}
	current := []pmc.PMC{*ct.Hint}
	lookup := &Explorer{KnownPMCs: x.KnownPMCs}
	sc := lookup.scratchFor()
	flags := make(map[sig]bool)
	seen := make(map[string]bool)
	var tr trace.Trace
	for trial := 0; trial < x.Trials; trial++ {
		var preFlags []sig
		for f := range flags {
			preFlags = append(preFlags, f)
		}
		underTest := slices.Clone(current)
		rng := rand.New(rand.NewSource(x.Seed + int64(trial)))
		policy := newPrevPolicy(rng, current, flags, nil)
		res := x.Env.RunPair(ct.Writer, ct.Reader, policy, &tr)
		x.Env.M.SetTrace(nil)
		each(&tr, current)
		out.Trials = trial + 1
		out.Switches += policy.switches
		out.Steps += res.Steps
		out.NewCoverPairs += x.Coverage.AddTrace(&tr)
		pairs.AddTrace(&tr)
		out.NewSegments += segs.AddTrace(&tr)
		if !out.Exercised && ChannelExercised(&tr, ct.Hint) {
			out.Exercised, out.ExercisedTrial = true, trial
		}
		crashed := false
		for _, is := range detect.Analyze(detect.TrialInput{Console: res.Console, Trace: &tr,
			PostScan: x.Fsck(), Hung: res.Hung, Deadlock: res.Deadlock}, x.Detect) {
			if seen[is.ID()] {
				continue
			}
			seen[is.ID()] = true
			out.Issues = append(out.Issues, is)
			out.IssueTrials = append(out.IssueTrials, trial)
			if out.ExposedTrial < 0 {
				out.ExposedTrial = trial
			}
			crashed = crashed || detect.CrashLevel(is.Kind)
		}
		if crashed {
			out.Repro = snapshotRepro(x.Seed+int64(trial), trial, current, preFlags)
			return done(underTest)
		}
		if len(current) < maxCurrentPMCs {
			sc.view.Build(&tr)
			if inc, ok := lookup.findIncidental(&sc.view, current, rng); ok {
				current = append(current, inc)
			}
		}
		if trial == x.Trials-1 {
			return done(underTest)
		}
	}
	return done(nil)
}

// adoptableByTests is what realTests' tests may adopt as one batch
// (adoptableBy their hints).
func adoptableByTests(set *pmc.Set, tests []ConcurrentTest) *pmc.Set {
	var hints []pmc.PMC
	for _, ct := range tests {
		hints = append(hints, *ct.Hint)
	}
	return adoptableBy(set, hints...)
}

// realTests runs stages 1–3 at the given seed on a small budget — fuzz,
// profile, identify, S-INS-PAIR clusters uncommon first — and returns the
// PMC set and the hinted concurrent tests generated from it.
func realTests(t testing.TB, env *exec.Env, seed int64) (*pmc.Set, []ConcurrentTest) {
	t.Helper()
	progs := fuzz.Campaign(env, seed, 300, 60).Corpus.Progs
	var profiles []pmc.Profile
	for i, p := range progs {
		accs, df, _ := env.Profile(p)
		profiles = append(profiles, pmc.Profile{TestID: i, Accesses: accs, DFLeader: df})
	}
	set := pmc.Identify(profiles, pmc.DefaultOptions())
	rng := rand.New(rand.NewSource(seed))
	cs := cluster.Clusters(set, cluster.SInsPair)
	cluster.OrderClusters(cs, cluster.UncommonFirst, rng)
	var tests []ConcurrentTest
	for i := range cs {
		hint := cluster.Exemplar(&cs[i], rng)
		pairs := set.Entries[hint].Pairs
		if len(pairs) == 0 || len(tests) == 40 {
			continue
		}
		pair := pairs[rng.Intn(len(pairs))]
		tests = append(tests, ConcurrentTest{Writer: progs[pair.Writer], Reader: progs[pair.Reader], Hint: &hint, Pair: pair})
	}
	if len(tests) < 20 {
		t.Fatalf("seed %d: only %d tests generated", seed, len(tests))
	}
	return set, tests
}

// TestExploreEqualsUnfused: over real tests of two seeds, the explorer —
// one view per trial under every consumer — must produce the Outcome of
// unfusedExplore, field by field, and adopt the same incidental PMCs in the
// same order. A second arm runs both with the race oracle off, where the
// coverage walker cannot ride the happens-before walk and walks by itself.
// Every other test adopts only from what the tests leave unplanned as one
// batch (a smaller KnownPMCs).
func TestExploreEqualsUnfused(t *testing.T) {
	adoptions, exercised, issues, repros := 0, 0, 0, 0
	racesOffPairs := 0
	// What the trials' traces are made of (CHANGES.md, the entry "one
	// per-trial trace view under every post-trial consumer").
	var trials, accesses, stack, atomic, private, prefix int
	var v trace.View
	composition := func(tr *trace.Trace, _ []pmc.PMC) {
		v.Build(tr)
		trials++
		accesses += tr.Len()
		sequential := true
		for i := 0; i < tr.Len(); i++ {
			stack += btoi(tr.StackAt(i))
			atomic += btoi(tr.AtomicAt(i) && !tr.StackAt(i))
			private += btoi(!tr.StackAt(i) && !tr.AtomicAt(i) && !v.Shared(i))
			sequential = sequential && tr.ThreadAt(i) == tr.ThreadAt(0)
			prefix += btoi(sequential)
		}
	}
	arms := []detect.Options{detect.DefaultOptions(), {Console: true, TornReads: true}}
	for _, seed := range []int64{3, 7} {
		env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
		set, tests := realTests(t, env, seed)
		known := []*pmc.Set{set, adoptableByTests(set, tests)}
		fsck := func() []string { return env.K.FsckHost() }
		for i, ct := range tests {
			for arm, opts := range arms {
				got := &Explorer{Env: env, Trials: 12, Seed: seed*1000 + int64(i), Mode: ModeSnowboard,
					Detect: opts, KnownPMCs: known[i%2], Coverage: cover.New(), TrackSegments: true, Fsck: fsck}
				ref := *got
				ref.Coverage, ref.scratch = cover.New(), nil
				each := composition
				if arm > 0 {
					each = func(*trace.Trace, []pmc.PMC) {}
				}
				want, wantPMCs := unfusedExplore(&ref, ct, each)
				have := got.Explore(ct)
				if !reflect.DeepEqual(have.Segments, want.Segments) || !reflect.DeepEqual(have.Pairs, want.Pairs) {
					t.Fatalf("seed %d test %d %+v: segment or pair sets differ", seed, i, opts)
				}
				if !reflect.DeepEqual(have, want) {
					t.Fatalf("seed %d test %d %+v:\nexplorer %+v\nunfused  %+v", seed, i, opts, have, want)
				}
				// The policy still holds the signatures of the PMCs the last
				// trial ran under, in adoption order.
				var wantSigs []sig
				for _, p := range wantPMCs {
					wantSigs = append(wantSigs, sigOfKey(trace.Write, p.Write), sigOfKey(trace.Read, p.Read))
				}
				if !slices.Equal(got.scratch.policy.current, wantSigs) {
					t.Fatalf("seed %d test %d %+v: PMCs under test %v, unfused %v", seed, i, opts, got.scratch.policy.current, wantSigs)
				}
				if arm > 0 {
					racesOffPairs += want.NewCoverPairs
					continue
				}
				adoptions += len(wantPMCs) - 1
				exercised += btoi(want.Exercised)
				issues += len(want.Issues)
				repros += btoi(want.Repro != nil)
			}
		}
	}
	if racesOffPairs == 0 {
		t.Fatal("the races-off arm covered no pair")
	}
	t.Logf("%d adoptions, %d tests exercised their channel, %d issues, %d crash repros", adoptions, exercised, issues, repros)
	data := accesses - stack - atomic
	t.Logf("%d trials, %.0f accesses each: %.0f%% stack, %.0f%% lock words, %.0f%% data, of which %.0f%% to words one thread touched; %.0f%% precede the first thread change",
		trials, float64(accesses)/float64(trials), 100*float64(stack)/float64(accesses), 100*float64(atomic)/float64(accesses),
		100*float64(data)/float64(accesses), 100*float64(private)/float64(data), 100*float64(prefix)/float64(accesses))
	if adoptions == 0 || exercised == 0 || issues == 0 || repros == 0 {
		t.Fatalf("comparison lost its teeth: %d adoptions, %d exercised, %d issues, %d crash repros", adoptions, exercised, issues, repros)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestSelectNthEqualsSort: at every index, quickselect must return what a
// full sort by the same order leaves there.
func TestSelectNthEqualsSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 300; iter++ {
		pmcs := make([]pmc.PMC, 1+rng.Intn(60))
		var cands []candidate
		for i := range pmcs {
			// Few distinct values per field, so ties run deep into the rank.
			pmcs[i] = pmc.PMC{
				Write:    pmc.Key{Ins: trace.Ins(rng.Intn(3)), Addr: uint64(rng.Intn(3)), Size: uint8(rng.Intn(2)), Val: uint64(i)},
				Read:     pmc.Key{Ins: trace.Ins(rng.Intn(3)), Addr: uint64(rng.Intn(3))},
				DFLeader: rng.Intn(2) == 0,
			}
			cands = append(cands, candidate{&pmcs[i], rng.Intn(4)})
		}
		sorted := slices.Clone(cands)
		slices.SortFunc(sorted, func(a, b candidate) int {
			if a.before(b) {
				return -1
			}
			return 1
		})
		for k := range cands {
			shuffled := slices.Clone(cands)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if got := selectNth(shuffled, k); got != sorted[k] {
				t.Fatalf("iter %d: selectNth(%d of %d) = %v (freq %d), sort leaves %v (freq %d)",
					iter, k, len(cands), got.PMC, got.freq, sorted[k].PMC, sorted[k].freq)
			}
		}
	}
}

// prevPolicy is SnowboardPolicy as it was when it was asked about every
// access and probed maps at each — the PMC signatures, a map of flagged
// instructions in front of the flags, the fired flags, a map of flip indices,
// its own count of the accesses it has seen — kept (identifiers prefixed) as
// the differential oracle of the flag set, the flip cursor and the watch.
// One thing is not as it was: a thread's previous access is kept per thread
// id in a map, where an array of 16 silently stopped tracking wider ids. One
// thing is new: it logs its draws as the explorer's policy does for the
// memo, each coin marked solo when its own scan of the runnable threads
// finds none but the accessing one.
type prevPolicy struct {
	rng          *rand.Rand
	current      []sig
	flags        map[sig]bool
	flagIns      map[trace.Ins]bool
	fired        map[sig]bool
	last         map[int]sig
	streak       int
	flipAt       map[int]bool
	switchEvents []int
	accessIndex  int
	switches     int
	draws        []uint8
}

func newPrevPolicy(rng *rand.Rand, currentPMCs []pmc.PMC, flags map[sig]bool, flips []int) *prevPolicy {
	p := &prevPolicy{rng: rng, flags: flags, flagIns: make(map[trace.Ins]bool), fired: make(map[sig]bool),
		last: make(map[int]sig), flipAt: make(map[int]bool)}
	for _, pm := range currentPMCs {
		p.current = append(p.current, sigOfKey(trace.Write, pm.Write), sigOfKey(trace.Read, pm.Read))
	}
	for f := range flags {
		p.flagIns[f.ins] = true
	}
	for _, i := range flips {
		p.flipAt[i] = true
	}
	return p
}

// Watch is the zero watch: every access.
func (p *prevPolicy) Watch() *vm.Watch { return &vm.Watch{} }

func (p *prevPolicy) OnAccess(m *vm.Machine, t *vm.Thread, a vm.AccessInfo) bool {
	idx := p.accessIndex
	p.accessIndex++
	if a.Index != idx {
		panic(fmt.Sprintf("the machine numbers access %d of the run %d", idx, a.Index))
	}
	doSwitch := false
	if !a.Stack {
		s := sigOfInfo(&a)
		if slices.Contains(p.current, s) {
			if f, ok := p.last[t.ID]; ok {
				p.flags[f] = true
				p.flagIns[f.ins] = true
			}
			doSwitch = p.coin(m, t)
		} else if p.flagIns[s.ins] && p.flags[s] && !p.fired[s] {
			p.fired[s] = true
			doSwitch = p.coin(m, t)
		}
		p.last[t.ID] = s
	}
	if p.flipAt[idx] {
		doSwitch = !doSwitch
	}
	p.streak++
	if p.streak >= livenessWindow {
		doSwitch = true
	}
	if doSwitch {
		p.streak = 0
		p.switches++
		p.switchEvents = append(p.switchEvents, idx)
		return true
	}
	return false
}

// coin tosses a switch coin for t's access and logs it.
func (p *prevPolicy) coin(m *vm.Machine, t *vm.Thread) bool {
	doSwitch := p.rng.Intn(switchDenom) == 0
	o := uint8(btoi(doSwitch))
	solo := true
	for _, u := range m.Runnable() {
		solo = solo && u == t
	}
	if solo {
		o |= soloDraw
	}
	p.draws = append(p.draws, o)
	return doSwitch
}

func (p *prevPolicy) Pick(m *vm.Machine, last *vm.Thread, ev vm.Event) *vm.Thread {
	switch ev.Kind {
	case vm.EvStart:
		runnable := m.Runnable()
		if len(runnable) == 0 {
			return nil
		}
		i := p.rng.Intn(len(runnable))
		p.draws = append(p.draws, uint8(i))
		return runnable[i]
	case vm.EvBlocked, vm.EvDone, vm.EvFault, vm.EvYield:
		p.streak = 0
	}
	return pickOther(m, last)
}

// countedSource counts the draws made from a seeded source.
type countedSource struct {
	rand.Source64
	draws int
}

func (c *countedSource) Int63() int64   { c.draws++; return c.Source64.Int63() }
func (c *countedSource) Uint64() uint64 { c.draws++; return c.Source64.Uint64() }

func countedRand(seed int64) (*rand.Rand, *countedSource) {
	src := &countedSource{Source64: rand.NewSource(seed).(rand.Source64)}
	return rand.New(src), src
}

// trialScheduler is what a trial runs under: either policy.
type trialScheduler interface {
	vm.Scheduler
	vm.AccessSink
}

// pairResult is what a trial under SnowboardPolicy left behind, for the
// assertions a case makes beyond agreement.
type pairResult struct {
	policy *SnowboardPolicy
	flags  *flagSet // the set the trial ran on: the caller's, or its own if it had flips
	draws  int
	solo   int // coins logged solo
}

// policyPair runs one trial under SnowboardPolicy, shown what it watches,
// and under prevPolicy, shown everything, each on its own flags and its own
// rng of one seed, and fails unless both induced the same preemptions, drew
// from the rng equally often and with the same logged outcomes, solo marks
// included, left the same flags and would record the same ReproState for
// the next trial. run drives a scheduler through the trial. A
// trial with flips is set up the way a replayed one is — by loadState, on a
// flag set of its own filled from the state — and leaves the caller's flags
// alone.
func policyPair(t *testing.T, what string, seed int64, pmcs []pmc.PMC, flags *flagSet, prevFlags map[sig]bool, flips []int, run func(trialScheduler)) pairResult {
	t.Helper()
	rng, src := countedRand(seed)
	prevRng, prevSrc := countedRand(seed)
	policy := &SnowboardPolicy{}
	if flips == nil {
		policy.reset(rng, pmcs, flags)
	} else {
		st := snapshotRepro(seed, 0, pmcs, flags.list)
		st.Flips = flips
		flags, prevFlags = &flagSet{}, maps.Clone(prevFlags)
		policy.loadState(st, rng, flags)
	}
	policy.RecordSwitches = true
	var draws []uint8
	policy.draws = &draws
	run(policy)
	prev := newPrevPolicy(prevRng, pmcs, prevFlags, flips)
	run(prev)
	if !slices.Equal(policy.SwitchEvents, prev.switchEvents) || policy.Switches != prev.switches {
		t.Fatalf("%s: preemptions at %v, the map policy's at %v", what, policy.SwitchEvents, prev.switchEvents)
	}
	if src.draws != prevSrc.draws {
		t.Fatalf("%s: %d rng draws, the map policy %d", what, src.draws, prevSrc.draws)
	}
	if !slices.Equal(draws, prev.draws) {
		t.Fatalf("%s: logged draws %v, the map policy's %v", what, draws, prev.draws)
	}
	if len(flags.list) != len(prevFlags) || slices.ContainsFunc(flags.list, func(f sig) bool { return !prevFlags[f] }) {
		t.Fatalf("%s: flags %v, the map policy's %v", what, flags.list, prevFlags)
	}
	state, _ := json.Marshal(snapshotRepro(seed, 1, pmcs, flags.list))
	prevState, _ := json.Marshal(snapshotRepro(seed, 1, pmcs, slices.Collect(maps.Keys(prevFlags))))
	if !bytes.Equal(state, prevState) {
		t.Fatalf("%s: the next trial's ReproState\n%s\nfrom the map policy's flags\n%s", what, state, prevState)
	}
	solo := 0
	for _, o := range draws {
		solo += btoi(o&soloDraw != 0)
	}
	return pairResult{policy, flags, src.draws, solo}
}

// TestPolicyEqualsMapPolicy: SnowboardPolicy, asked only about the accesses
// it watches, must schedule exactly as the map-probing policy asked about
// every access, and log the same draws for the memo, solo marks included — over real tests of two seeds, trial after trial on flags
// that persist and a PMC set that grows by adoption, in trials that replay
// the last one with decisions flipped on and off the watched accesses and
// past the end of the trial, and through the scripted cases of watch_test.go.
func TestPolicyEqualsMapPolicy(t *testing.T) {
	var switches, learned, flipped, adopted, offWatch, solo int
	for _, seed := range []int64{3, 7} {
		env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
		set, tests := realTests(t, env, seed)
		var tr trace.Trace
		for i, ct := range tests {
			flags, prevFlags := &flagSet{}, make(map[sig]bool)
			current := []pmc.PMC{*ct.Hint}
			run := func(s trialScheduler) { env.RunPair(ct.Writer, ct.Reader, s, &tr) }
			for trial := 0; trial < 8; trial++ {
				trialSeed := seed*1000 + int64(i)*10 + int64(trial)
				ran := policyPair(t, fmt.Sprintf("seed %d test %d trial %d", seed, i, trial), trialSeed, current, flags, prevFlags, nil, run)
				at := ran.policy.SwitchEvents
				switches += len(at)
				solo += ran.solo
				if inc, ok := model.Adopt(model.Incidental(set, &tr, current), rand.New(rand.NewSource(trialSeed))); ok && len(current) < maxCurrentPMCs {
					current = append(current, inc)
					adopted++
				}
				if len(at) == 0 || trial%2 == 0 {
					continue
				}
				// One or two decisions within ±2 accesses of the trial's
				// preemptions, one anywhere in the trial, and one no access
				// of the trial has.
				gen := rand.New(rand.NewSource(trialSeed))
				var flips []int
				for range 1 + gen.Intn(2) {
					flips = append(flips, max(0, at[gen.Intn(len(at))]+gen.Intn(5)-2))
				}
				flips = append(flips, gen.Intn(tr.Len()), tr.Len()+gen.Intn(100))
				got := policyPair(t, fmt.Sprintf("seed %d test %d trial %d flipped at %v", seed, i, trial, flips), trialSeed,
					current, flags, prevFlags, flips, run)
				for _, f := range got.policy.FlipAt[:got.policy.nextFlip] {
					offWatch += btoi(f < tr.Len() && !got.policy.watch.Sites.Has(tr.InsAt(f), tr.AddrAt(f)))
				}
				if last := got.policy.FlipAt[len(got.policy.FlipAt)-1]; got.policy.nextFlip == len(got.policy.FlipAt) && last >= tr.Len() {
					t.Fatalf("seed %d test %d trial %d: a flip at %d was consumed by a trial of %d accesses", seed, i, trial, last, tr.Len())
				}
				flipped++
				solo += got.solo
			}
			learned += len(flags.list)
		}
		env.Close()
	}
	t.Logf("%d preemptions, %d flags learned, %d adoptions, %d flipped trials, %d flips on unwatched accesses, %d solo coins",
		switches, learned, adopted, flipped, offWatch, solo)
	if switches == 0 || learned == 0 || adopted == 0 || flipped == 0 || offWatch == 0 || solo == 0 {
		t.Fatal("comparison lost its teeth")
	}
	for _, c := range scriptedCases() {
		t.Run(c.name, func(t *testing.T) { c.run(t) })
	}
}
