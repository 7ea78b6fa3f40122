package sched

import (
	"math/rand"
	"slices"
	"time"

	"snowboard/internal/corpus"
	"snowboard/internal/cover"
	"snowboard/internal/detect"
	"snowboard/internal/exec"
	"snowboard/internal/lazyrand"
	"snowboard/internal/obs"
	"snowboard/internal/pmc"
	"snowboard/internal/trace"
)

// Exploration metrics, bumped once per concurrent test / trial — the
// scheduler hot path itself (per-access decisions) stays untouched.
var (
	mTests      = obs.C(obs.MExecTests)
	hTestDur    = obs.H(obs.MExecTestDur) // the exec.test span's, resolved once
	mTrials     = obs.C(obs.MSchedTrials)
	mSwitches   = obs.C(obs.MSchedSwitches)
	mChannelHit = obs.C(obs.MSchedChannelHit)
	mIncidental = obs.C(obs.MSchedIncidental)
)

// ConcurrentTest is a Snowboard concurrent test: two sequential tests plus
// the PMC scheduling hint (nil for the baseline pairing generators).
type ConcurrentTest struct {
	Writer *corpus.Prog
	Reader *corpus.Prog
	Hint   *pmc.PMC
	Pair   pmc.Pair // corpus test ids, informational

	// Extra carries additional coalesced PMC hints probed by the same
	// execution ("cooperative composing"): independent channels — disjoint
	// memory, distinct sites — whose generated tests share this
	// writer/reader program pair. They join the PMC set under test from
	// trial 0, bounded by maxCurrentPMCs.
	Extra []pmc.PMC `json:",omitempty"`
}

// Mode selects the exploration scheduler.
type Mode uint8

// Exploration modes.
const (
	// ModeSnowboard is Algorithm 2 (PMC-hinted).
	ModeSnowboard Mode = iota
	// ModeSKI is the instruction-triggered baseline.
	ModeSKI
	// ModeRandomWalk preempts uniformly at random.
	ModeRandomWalk
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeSnowboard:
		return "snowboard"
	case ModeSKI:
		return "ski"
	case ModeRandomWalk:
		return "random-walk"
	}
	return "?"
}

// Explorer executes concurrent tests, exploring interleavings per trial
// (Algorithm 2's outer loop).
type Explorer struct {
	Env    *exec.Env
	Trials int   // maximum trials per concurrent test (the paper uses 64)
	Seed   int64 // base seed; trial t uses Seed+t ("always same randomness in trial")
	Mode   Mode
	Detect detect.Options

	// DisableIncidental turns off the adoption of co-incident PMCs
	// (Algorithm 2 lines 26–27), for the ablation bench.
	DisableIncidental bool

	// KnownPMCs, when set, is consulted to recognize incidental PMCs
	// observed during trials.
	KnownPMCs *pmc.Set

	// Fsck, when set, produces host-side post-mortem console lines after a
	// trial (e.g. the filesystem checker).
	Fsck func() []string

	// Coverage, when set, accumulates Krace-style alias instruction-pair
	// coverage across trials (§2.1/§5.3.1).
	Coverage *cover.Coverage

	// TrackSegments, when set, gives every Explore call a fresh
	// interleaving-segment accumulator (Outcome.Segments). Unlike the
	// shared Coverage accumulator, the per-test segment set is a pure
	// function of (test, seed) — worker-invariant — which is what lets
	// the feedback scheduler credit clusters by segment yield without
	// breaking bit-identical reports across worker counts.
	TrackSegments bool

	// MutateSchedules enables schedule mutation (Snowboard mode only):
	// when a trial discovers new segments, its pre-trial state plus its
	// preemption points are kept as a mutable seed, and odd trials replay
	// a kept seed with the switch decision flipped at a few points near
	// its recorded preemptions instead of exploring from scratch.
	MutateSchedules bool

	// Trace stitches this explorer's flight-recorder events to a campaign
	// (the pipeline's, or a distributed worker's leased job's; empty falls
	// back to the process default campaign).
	Trace string

	// scratch is the reusable per-trial state, created on first use. A copy
	// of a used Explorer shares it (NewFleet clears it in each worker).
	scratch *scratch
}

// scratch is everything a trial needs that does not outlive it, kept
// behind each Explorer so a warm trial allocates for little beyond the
// guest execution itself. After the guest, a trial is one view build and
// one walk, which the coverage walker rides, and nothing hashes an access
// the view has already indexed.
type scratch struct {
	tr     trace.Trace
	view   trace.View // of tr, built once per trial for every post-trial consumer
	rng    *rand.Rand // over a lazyrand.Source: reseeding per trial is free
	oracle detect.Scratch
	walk   cover.Walker // handed to the oracles, folded after them
	flags  flagSet
	seen   map[detect.IssueKey]bool

	// The Snowboard-mode trial scheduler and the throwaway flag set of a
	// mutated trial.
	policy   SnowboardPolicy
	mutFlags flagSet

	// findIncidental: chain heads by view word and kind (at 2·id + kind, 1 +
	// the latest access's index), per-access links, the candidates, and
	// each read key's executed answer by KnownPMCs' read key id, valid in
	// the call whose stamp it carries.
	heads      []int32
	chain      []int32
	candidates []candidate
	reads      []readMemo
	call       uint32
}

// readMemo is scratch.executed's answer for one read key.
type readMemo struct {
	call     uint32
	n, first int32
}

// scratchFor returns the explorer's scratch reset for a new concurrent
// test, creating it on first use.
func (x *Explorer) scratchFor() *scratch {
	sc := x.scratch
	if sc == nil {
		sc = &scratch{
			rng:  lazyrand.New(0),
			seen: make(map[detect.IssueKey]bool),
		}
		x.scratch = sc
	}
	sc.flags.reset(0)
	clear(sc.seen)
	return sc
}

// record folds one trial's issues into out, keeping those new to this test,
// and reports whether a fresh one is crash-level. Benign races (e.g. the
// ubiquitous slab counter, issue #13) show up in almost every trial and must
// not end exploration; a crash-level finding does — the kernel is wedged.
func (sc *scratch) record(out *Outcome, trial int, issues []detect.Issue) (crashed bool) {
	for _, is := range issues {
		k := is.Key()
		if sc.seen[k] {
			continue
		}
		sc.seen[k] = true
		out.Issues = append(out.Issues, is)
		out.IssueTrials = append(out.IssueTrials, trial)
		if out.ExposedTrial < 0 {
			out.ExposedTrial = trial
		}
		crashed = crashed || detect.CrashLevel(is.Kind)
	}
	return crashed
}

// Outcome summarizes the exploration of one concurrent test.
type Outcome struct {
	Trials         int  // trials actually executed
	Exercised      bool // the hinted memory channel occurred in ≥1 trial
	ExercisedTrial int  // first trial where it occurred (-1 if never)
	ExposedTrial   int  // first trial that surfaced an issue (-1 if none)
	Issues         []detect.Issue
	IssueTrials    []int // IssueTrials[i]: the trial on which Issues[i] first surfaced
	Switches       int   // total induced preemptions
	Steps          int   // total events across trials
	NewCoverPairs  int   // fresh alias instruction pairs covered (if Coverage set)

	// Segments accumulates this test's interleaving segments (set when
	// the explorer's TrackSegments is on); NewSegments counts those new
	// to this test's own accumulator. Both are pure functions of
	// (test, seed), independent of worker placement. The binary form (a
	// queue worker's result, Encode) does not carry Segments.
	Segments    *cover.Segments
	NewSegments int

	// Repro pins the first trial that surfaced a crash-level issue, for
	// deterministic reproduction via Replay (§6). Nil when no such trial.
	Repro *ReproState
}

// TrialOf returns the trial on which the given issue first surfaced, or -1.
func (o *Outcome) TrialOf(is detect.Issue) int {
	k := is.Key()
	for i := range o.Issues {
		if o.Issues[i].Key() == k {
			return o.IssueTrials[i]
		}
	}
	return -1
}

// Explore runs up to Trials interleaving trials of the concurrent test,
// following Algorithm 2: flags persist across trials, PMC accesses trigger
// non-deterministic rescheduling, incidental PMCs observed in a trial are
// adopted into the set under test.
func (x *Explorer) Explore(ct ConcurrentTest) Outcome {
	out := Outcome{ExercisedTrial: -1, ExposedTrial: -1}
	mTests.Inc()
	start := time.Now()
	defer func() {
		dur := time.Since(start)
		hTestDur.ObserveDuration(dur)
		obs.EmitTrace(x.Trace, obs.EvPMCTested, obs.A("mode", x.Mode.String()),
			obs.A("hinted", ct.Hint != nil), obs.A("exercised", out.Exercised),
			obs.A("trials", out.Trials), obs.A("issues", len(out.Issues)), obs.A("dur_ns", int64(dur)))
		if out.NewCoverPairs > 0 || out.NewSegments > 0 {
			obs.EmitTrace(x.Trace, obs.EvCoverNew, obs.A("pairs", out.NewCoverPairs),
				obs.A("segments", out.NewSegments))
		}
	}()
	trials := x.Trials
	if trials <= 0 {
		trials = 64
	}
	if x.TrackSegments {
		out.Segments = cover.NewSegments()
	}

	var currentPMCs []pmc.PMC
	if ct.Hint != nil {
		currentPMCs = append(currentPMCs, *ct.Hint)
	}
	for i := range ct.Extra {
		if len(currentPMCs) >= maxCurrentPMCs {
			break
		}
		currentPMCs = append(currentPMCs, ct.Extra[i])
	}
	sc := x.scratchFor()
	flags, tr, rng := &sc.flags, &sc.tr, sc.rng

	// Mutable yield-schedule seeds: pre-trial state + preemption points of
	// trials that discovered new segments (MutateSchedules only).
	type schedSeed struct {
		state    *ReproState
		switches []int
	}
	var seeds []schedSeed
	mutating := x.MutateSchedules && x.Mode == ModeSnowboard

	for trial := 0; trial < trials; trial++ {
		trialSeed := x.Seed + int64(trial)
		// policy is set in Snowboard mode only. pretrial stays nil (a
		// mutated trial runs from a synthesized one) until keep materialises
		// it for a trial worth keeping, from the flags the trial started
		// with: those learned since come after them.
		var pretrial *ReproState
		var policy *SnowboardPolicy
		preFlags := len(flags.list)
		keep := func() *ReproState {
			if pretrial == nil && policy != nil {
				pretrial = snapshotRepro(trialSeed, trial, currentPMCs, flags.list[:preFlags])
			}
			return pretrial
		}
		rng.Seed(trialSeed)
		mutated := false
		var res exec.Result
		var switches int
		switch x.Mode {
		case ModeSKI:
			p := NewSKIPolicy(rng, ct.Hint)
			res = x.Env.RunPair(ct.Writer, ct.Reader, p, tr)
			switches = p.Switches
		case ModeRandomWalk:
			p := NewRandomWalkPolicy(rng, 20)
			res = x.Env.RunPair(ct.Writer, ct.Reader, p, tr)
		default:
			policy = &sc.policy
			if mutating && len(seeds) > 0 && trial%2 == 1 {
				// Mutation trial: perturb a segment-discovering schedule
				// near its preemption points instead of exploring fresh.
				// The trial is a pure function of its synthesized
				// ReproState, so it replays like any recorded trial. The
				// explorer's rng has no draw left to make in such a trial,
				// so it is reseeded to drive the policy.
				sd := seeds[rng.Intn(len(seeds))]
				pretrial = &ReproState{
					Seed:  sd.state.Seed,
					Trial: trial,
					PMCs:  sd.state.PMCs,
					Flags: sd.state.Flags,
					Flips: mutateFlips(rng, sd.state.Flips, sd.switches),
				}
				policy.loadState(pretrial, rng, &sc.mutFlags)
				mutated = true
			} else {
				policy.reset(rng, currentPMCs, flags)
			}
			policy.RecordSwitches = mutating
			res = x.Env.RunPair(ct.Writer, ct.Reader, policy, tr)
			switches = policy.Switches
		}
		x.Env.M.SetTrace(nil)
		out.Trials = trial + 1
		out.Switches += switches
		out.Steps += res.Steps
		mTrials.Inc()
		mSwitches.Add(int64(switches))
		sc.view.Build(tr)
		in := detect.TrialInput{
			Console:  res.Console,
			Trace:    tr,
			View:     &sc.view,
			Hung:     res.Hung,
			Deadlock: res.Deadlock,
		}
		if x.Coverage != nil || out.Segments != nil {
			in.Cover = &sc.walk
		}
		if x.Fsck != nil {
			in.PostScan = x.Fsck()
		}
		issues := sc.oracle.Analyze(in, x.Detect)
		freshPairs, freshSegs := sc.walk.Fold(x.Coverage, out.Segments)
		out.NewCoverPairs += freshPairs
		out.NewSegments += freshSegs
		if freshSegs > 0 && mutating && len(policy.SwitchEvents) > 0 {
			seeds = append(seeds, schedSeed{
				state:    keep(),
				switches: append([]int(nil), policy.SwitchEvents...),
			})
			if len(seeds) > maxSchedSeeds {
				seeds = seeds[1:]
			}
		}

		// Channel witness: did the hinted communication actually happen?
		if ct.Hint != nil && !out.Exercised && ChannelExercised(tr, ct.Hint) {
			out.Exercised = true
			out.ExercisedTrial = trial
			mChannelHit.Inc()
		}

		if sc.record(&out, trial, issues) {
			out.Repro = keep()
			break
		}

		// Algorithm 2 lines 26–27: adopt one incidental PMC whose write and
		// read both appeared in this trial. The set under test is capped:
		// every member PMC adds preemption points, and an unbounded set
		// degenerates into schedule thrash that closes the very windows the
		// hint is meant to open. Mutation trials replay historical state
		// and do not advance the live PMC set.
		if !mutated && !x.DisableIncidental && x.Mode == ModeSnowboard && len(currentPMCs) < maxCurrentPMCs {
			if inc, ok := x.findIncidental(&sc.view, currentPMCs, rng); ok {
				currentPMCs = append(currentPMCs, inc)
				mIncidental.Inc()
			}
		}
	}
	return out
}

// maxCurrentPMCs bounds the PMC set under simultaneous test: the hint plus
// composed co-hints and adopted incidentals.
const maxCurrentPMCs = 4

// maxSchedSeeds bounds the kept mutable yield schedules; newer discoveries
// evict the oldest.
const maxSchedSeeds = 4

// mutateFlips derives a mutated flip set: the base seed's flips (ascending
// and distinct, as every ReproState the explorer keeps has them) with 1–2
// decisions toggled at points drawn within ±2 events of the seed trial's
// recorded preemptions. Toggling (XOR) rather than adding lets a second
// mutation of the same seed undo a harmful flip.
func mutateFlips(rng *rand.Rand, base, switches []int) []int {
	var buf [16]int // toggled in place, on the stack unless a seed has more flips than any did
	out := append(buf[:0], base...)
	n := 1 + rng.Intn(2)
	for k := 0; k < n; k++ {
		at := max(0, switches[rng.Intn(len(switches))]+rng.Intn(5)-2)
		if i, found := slices.BinarySearch(out, at); found {
			out = slices.Delete(out, i, i+1)
		} else {
			out = slices.Insert(out, i, at)
		}
	}
	return slices.Clone(out)
}

// findIncidental locates a PMC from the identified set present in the
// accesses of v's trial but not yet under test, choosing deterministically
// among the candidates with the trial rng.
func (x *Explorer) findIncidental(v *trace.View, current []pmc.PMC, rng *rand.Rand) (pmc.PMC, bool) {
	if x.KnownPMCs == nil {
		return pmc.PMC{}, false
	}
	sc, tr := x.scratch, v.Trace()
	// Chain the trial's data accesses by kind and view id of the word they
	// start in — a key's accesses all start at its address — so that
	// executed answers from the trace rows, without a table of keys.
	sc.heads = slices.Grow(sc.heads[:0], 2*v.Words())[:2*v.Words()]
	clear(sc.heads)
	sc.chain = slices.Grow(sc.chain[:0], tr.Len())[:tr.Len()]
	for i := range sc.chain {
		if id, _ := v.WordsAt(i); id != trace.NoWord {
			h := &sc.heads[id<<1|uint32(tr.KindAt(i))]
			sc.chain[i], *h = *h, int32(i+1)
		}
	}
	// A PMC is under test when both its sides are (sides of different
	// current PMCs count: the scheduler matches accesses, not pairs).
	underTest := func(kind trace.Kind, k pmc.Key) bool {
		s := sigOfKey(kind, k)
		return slices.ContainsFunc(current, func(p pmc.PMC) bool {
			return sigOfKey(trace.Write, p.Write) == s || sigOfKey(trace.Read, p.Read) == s
		})
	}
	// Each read key's chain is walked once per call, whichever PMCs share it.
	if n := x.KnownPMCs.ReadKeys(); len(sc.reads) < n {
		sc.reads = make([]readMemo, n)
	}
	if sc.call++; sc.call == 0 {
		clear(sc.reads)
		sc.call = 1
	}
	candidates := sc.candidates[:0]
	for i, n := 0, tr.Len(); i < n; i++ {
		if !tr.IsWriteAt(i) || tr.StackAt(i) || tr.AtomicAt(i) {
			continue
		}
		w := pmc.Key{Ins: tr.InsAt(i), Addr: tr.AddrAt(i), Size: tr.SizeAt(i), Val: tr.ValAt(i)}
		known, reads := x.KnownPMCs.ByWriteRead(w)
		if len(known) == 0 {
			continue
		}
		id, _ := v.WordsAt(i)
		wCount, first := sc.executed(tr, id, trace.Write, &w)
		if first != i {
			continue // each distinct write key once
		}
		wUnderTest := underTest(trace.Write, w)
		for j := range known {
			p, r := &known[j], &sc.reads[reads[j]]
			if r.call != sc.call {
				n, first := sc.executed(tr, v.WordOf(p.Read.Addr), trace.Read, &p.Read)
				*r = readMemo{call: sc.call, n: int32(n), first: int32(first)}
			}
			if r.first < 0 || (wUnderTest && underTest(trace.Read, p.Read)) {
				continue
			}
			candidates = append(candidates, candidate{p, wCount + int(r.n)})
		}
	}
	sc.candidates = candidates
	if len(candidates) == 0 {
		return pmc.PMC{}, false
	}
	// Draw among the least-frequent quartile to retain Algorithm 2's
	// random choice without re-admitting the hot channels.
	return *selectNth(candidates, rng.Intn((len(candidates)+3)/4)).PMC, true
}

// executed returns how many of the trial's data accesses have k's signature
// as a kind access, and the index of the first of them that moved k's value
// as well — that is k — or -1. id is the view's word id of k.Addr.
func (sc *scratch) executed(tr *trace.Trace, id uint32, kind trace.Kind, k *pmc.Key) (n, first int) {
	first = -1
	if id == trace.NoWord {
		return 0, first
	}
	for at := sc.heads[id<<1|uint32(kind)]; at != 0; at = sc.chain[at-1] {
		if i := int(at - 1); sigAt(tr, i, kind, k) {
			n++
			if tr.ValAt(i) == k.Val {
				first = i
			}
		}
	}
	return n, first
}

// sigAt reports whether the i-th access has k's signature as a kind access
// (its sig is sigOfKey(kind, k)), on the trace rows, no Access built.
func sigAt(tr *trace.Trace, i int, kind trace.Kind, k *pmc.Key) bool {
	return tr.InsAt(i) == k.Ins && tr.AddrAt(i) == k.Addr && tr.SizeAt(i) == k.Size && tr.KindAt(i) == kind
}

// candidate is a PMC eligible for adoption (it points into KnownPMCs' write
// index, which is never modified) with how often the trial executed its two
// access signatures: the least-frequently-executed candidate is preferred
// (the uncommon-first philosophy of §4.3 applied to adoption), because hot
// allocator channels fire on every kmalloc and adopting one floods the
// schedule with preemption points.
type candidate struct {
	*pmc.PMC
	freq int
}

// before orders candidates by frequency, then by the PMC's own fields only
// to make the order total — candidates are distinct PMCs, so some field
// differs — which keeps the order they were found in out of which PMC gets
// adopted. The fields are compared in place, up to the first that differs.
func (a candidate) before(b candidate) bool {
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	x, y := a.PMC, b.PMC
	switch {
	case x.Write.Ins != y.Write.Ins:
		return x.Write.Ins < y.Write.Ins
	case x.Write.Addr != y.Write.Addr:
		return x.Write.Addr < y.Write.Addr
	case x.Read.Ins != y.Read.Ins:
		return x.Read.Ins < y.Read.Ins
	case x.Read.Addr != y.Read.Addr:
		return x.Read.Addr < y.Read.Addr
	case x.Write.Val != y.Write.Val:
		return x.Write.Val < y.Write.Val
	case x.Read.Val != y.Read.Val:
		return x.Read.Val < y.Read.Val
	case x.Write.Size != y.Write.Size:
		return x.Write.Size < y.Write.Size
	case x.Read.Size != y.Read.Size:
		return x.Read.Size < y.Read.Size
	}
	return !x.DFLeader && y.DFLeader
}

// selectNth reorders c just enough to return the candidate a full sort by
// before would leave at index k (quickselect, in place).
func selectNth(c []candidate, k int) candidate {
	for lo, hi := 0, len(c)-1; lo < hi; {
		c[(lo+hi)/2], c[hi] = c[hi], c[(lo+hi)/2] // the pivot
		p := lo
		for i := lo; i < hi; i++ {
			if c[i].before(c[hi]) {
				c[i], c[p] = c[p], c[i]
				p++
			}
		}
		c[p], c[hi] = c[hi], c[p]
		switch {
		case k < p:
			hi = p - 1
		case k > p:
			lo = p + 1
		default:
			return c[k]
		}
	}
	return c[k]
}

// ChannelExercised reports whether the trial trace contains the hinted
// communication: a write matching the hint's write site followed by a read
// matching the hint's read site from a different thread that observed the
// written bytes, with no intervening write to the overlap.
func ChannelExercised(tr *trace.Trace, hint *pmc.PMC) bool {
	lastWrite := -1
	for i, n := 0, tr.Len(); i < n; i++ {
		if sigAt(tr, i, trace.Write, &hint.Write) {
			lastWrite = i
			continue
		}
		if lastWrite < 0 || !sigAt(tr, i, trace.Read, &hint.Read) || tr.ThreadAt(i) == tr.ThreadAt(lastWrite) {
			continue
		}
		a, w := tr.At(i), tr.At(lastWrite)
		if !a.Overlaps(&w) {
			continue
		}
		lo, hi := a.OverlapRange(&w)
		if a.ProjectVal(lo, hi) != w.ProjectVal(lo, hi) {
			continue // someone else overwrote in between
		}
		// Verify no intervening write touched the overlap.
		clean := true
		for j := lastWrite + 1; j < i; j++ {
			if tr.IsWriteAt(j) && tr.AddrAt(j) < hi && tr.EndAt(j) > lo {
				clean = false
				break
			}
		}
		if clean {
			return true
		}
	}
	return false
}
