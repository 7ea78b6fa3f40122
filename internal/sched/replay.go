package sched

import (
	"math/rand"
	"slices"
	"sort"

	"snowboard/internal/exec"
	"snowboard/internal/lazyrand"
	"snowboard/internal/pmc"
	"snowboard/internal/trace"
)

// Deterministic reproduction (§6 "Bug Diagnosis and Deterministic
// Reproduction"): a trial of Algorithm 2 is fully determined by the trial
// seed, the set of PMCs under test at trial start, and the accumulated
// flags. ReproState captures exactly that, so a bug-exposing trial can be
// re-executed on demand — "Snowboard has the benefit of providing a
// reliable environment to replicate bugs once they are found".

// AccessSig is the exported form of a scheduler access signature.
type AccessSig struct {
	Kind trace.Kind `json:"kind"`
	Ins  trace.Ins  `json:"ins"`
	Addr uint64     `json:"addr"`
	Size uint8      `json:"size"`
}

func exportSig(s sig) AccessSig {
	return AccessSig{Kind: s.kind, Ins: s.ins, Addr: s.addr, Size: s.size}
}

func importSig(s AccessSig) sig {
	return sig{kind: s.Kind, ins: s.Ins, addr: s.Addr, size: s.Size}
}

// ReproState pins one trial of one concurrent test.
type ReproState struct {
	Seed  int64       `json:"seed"`  // the trial's rng seed (base seed + trial index)
	Trial int         `json:"trial"` // informational
	PMCs  []pmc.PMC   `json:"pmcs"`  // PMCs under test when the trial started
	Flags []AccessSig `json:"flags"` // accumulated pmc_access_coming markers
	// Flips lists access indices at which the scheduler's switch decision
	// is inverted. An explored trial has none; triage's minimized states
	// suppress preemptions with them, and states recorded by binaries that
	// still mutated schedules carry them too.
	Flips []int `json:"flips,omitempty"`
}

// snapshotRepro materialises the pre-trial scheduler state of a trial worth
// keeping, from the flags as they stood before the trial ran.
func snapshotRepro(seed int64, trial int, pmcs []pmc.PMC, flags []sig) *ReproState {
	st := &ReproState{
		Seed:  seed,
		Trial: trial,
		PMCs:  append([]pmc.PMC(nil), pmcs...),
	}
	for _, f := range flags {
		st.Flags = append(st.Flags, exportSig(f))
	}
	sort.Slice(st.Flags, func(i, j int) bool {
		a, b := st.Flags[i], st.Flags[j]
		if a.Ins != b.Ins {
			return a.Ins < b.Ins
		}
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		if a.Size != b.Size {
			return a.Size < b.Size
		}
		return a.Kind < b.Kind
	})
	return st
}

// loadState makes p the exact scheduler a recorded trial ran with: r
// reseeded from the trial seed, flags (emptied first) and PMCs from the
// snapshot, and its flips re-applied.
func (p *SnowboardPolicy) loadState(st *ReproState, r *rand.Rand, flags *flagSet) {
	flags.reset(len(st.Flags))
	for _, f := range st.Flags {
		flags.add(importSig(f))
	}
	r.Seed(st.Seed)
	p.reset(r, st.PMCs, flags)
	// OnAccess consumes the flips with a cursor: ascending, each index once,
	// none that no access can have.
	p.FlipAt = append(p.FlipAt, st.Flips...)
	slices.Sort(p.FlipAt)
	p.FlipAt = slices.Compact(p.FlipAt)
	for len(p.FlipAt) > 0 && p.FlipAt[0] < 0 {
		p.FlipAt = p.FlipAt[1:]
	}
}

// Replayer re-executes recorded trials. Its policy, source and flag set are
// reloaded from each state — a lazyrand source reseeds for free — so a
// caller that replays many trials, as triage's minimizer does, allocates
// them once. The zero value is ready to use; a Replayer is not safe for
// concurrent use.
type Replayer struct {
	policy SnowboardPolicy
	rng    *rand.Rand
	flags  flagSet
}

// load makes the replayer's policy the scheduler st's trial ran with.
func (r *Replayer) load(st *ReproState) *SnowboardPolicy {
	if r.rng == nil {
		r.rng = lazyrand.New(0)
	}
	r.policy.loadState(st, r.rng, &r.flags)
	return &r.policy
}

// Replay re-executes exactly one trial from the recorded state and returns
// the execution result plus the trial's trace. The same kernel faults occur
// on every call: the substrate is deterministic end to end.
func Replay(env *exec.Env, ct ConcurrentTest, st *ReproState, tr *trace.Trace) exec.Result {
	var r Replayer
	return env.RunPair(ct.Writer, ct.Reader, r.load(st), tr)
}

// ReplayRecorded is Replay with preemption recording: it additionally
// returns the access indices at which the replayed schedule switched
// threads, in occurrence order. Triage builds its ddmin decision set from
// these — every scheduler-rolled preemption is a decision that can be
// suppressed by flipping it.
func ReplayRecorded(env *exec.Env, ct ConcurrentTest, st *ReproState, tr *trace.Trace) (exec.Result, []int) {
	var r Replayer
	return r.ReplayRecorded(env, ct, st, tr)
}

// ReplayRecorded is the package's ReplayRecorded through r. The switch
// indices are in storage the next replay reuses.
func (r *Replayer) ReplayRecorded(env *exec.Env, ct ConcurrentTest, st *ReproState, tr *trace.Trace) (exec.Result, []int) {
	policy := r.load(st)
	policy.RecordSwitches = true
	res := env.RunPair(ct.Writer, ct.Reader, policy, tr)
	return res, policy.SwitchEvents
}
