// Package sched implements concurrent test execution (§4.4): Algorithm 2's
// PMC-guided interleaving exploration, plus the baseline schedulers it is
// compared against (SKI-style instruction-triggered yielding, PCT, and a
// random walk).
package sched

import (
	"math/rand"
	"slices"

	"snowboard/internal/pmc"
	"snowboard/internal/trace"
	"snowboard/internal/vm"
)

// sig identifies a memory access for matching purposes: kind, site, and
// range. Values are deliberately excluded — during a successfully exercised
// channel the read observes a *different* value than profiled, and the
// scheduler must still recognize it (see §4.4's performed_pmc_access).
// The fields sit back to back, widest first: a sig is 16 bytes, compared as
// a whole.
type sig struct {
	addr uint64
	ins  trace.Ins
	kind trace.Kind
	size uint8
}

func sigOfInfo(a *vm.AccessInfo) sig {
	return sig{kind: a.Kind, ins: a.Ins, addr: a.Addr, size: a.Size}
}

func sigOfKey(kind trace.Kind, k pmc.Key) sig {
	return sig{kind: kind, ins: k.Ins, addr: k.Addr, size: k.Size}
}

// livenessWindow is the number of consecutive events one thread may run
// without the policy switching before is_live forces a yield, the analogue
// of SKI's low-liveness heuristics (§4.4.1).
const livenessWindow = 4096

// pickOther returns a runnable thread different from cur, or cur itself if
// it is the only runnable one.
func pickOther(m *vm.Machine, cur *vm.Thread) *vm.Thread {
	runnable := m.Runnable()
	for _, t := range runnable {
		if t != cur {
			return t
		}
	}
	if len(runnable) > 0 {
		return runnable[0]
	}
	return nil
}

// pickNext is the Pick of the policies that decide in OnAccess: a thread
// drawn from rng to start with, then the other one whenever the running one
// stops or OnAccess asked for a preemption.
func pickNext(rng *rand.Rand, m *vm.Machine, last *vm.Thread, ev vm.Event) *vm.Thread {
	if ev.Kind != vm.EvStart {
		return pickOther(m, last)
	}
	runnable := m.Runnable()
	if len(runnable) == 0 {
		return nil
	}
	return runnable[rng.Intn(len(runnable))]
}

// switchDenom is the denominator of the switch probability after a
// performed PMC access and at a flagged predecessor access (1/4 each).
// Algorithm 2 leaves random()'s bias unspecified; this came out of a
// 30-seed sweep on the Figure 1 bug (mean trials-to-expose 35 vs 53 for a
// fair coin): switching somewhat less often preserves the windows that the
// preceding PMC switch just opened. A recorded trial replays only under the
// value it ran with, which is why it is not an option.
const switchDenom = 4

// SnowboardPolicy is the Algorithm 2 scheduler for one trial: it lets
// threads run freely and induces non-deterministic yields only around the
// accesses of the PMCs under test — after a PMC access is performed, and
// when the flagged predecessor of a PMC access is seen (the access is
// "coming"). It is asked about those only: it watches the sites of the PMCs
// and of the flags, and the index of the next flip or liveness force.
type SnowboardPolicy struct {
	rng     *rand.Rand
	current []sig    // accesses of the PMCs under test (small; linear scan)
	flags   *flagSet // predecessors that announce a PMC access, and which of them fired this trial
	watch   vm.Watch // sites of current and of flags; the index of the next flip or liveness force

	// streakStart is the index of the first access since the last switch;
	// is_live forces a yield once there are livenessWindow of them.
	streakStart int

	// FlipAt inverts the rng-drawn switch decision at the listed access
	// indices (vm.AccessInfo.Index; ascending, distinct). This is the
	// schedule-mutation mechanism: a trial that discovered new
	// interleaving segments is replayed with a few decisions flipped near
	// its recorded preemption points instead of exploring from scratch.
	// The liveness force still applies after the flip, so a mutated
	// schedule can never starve a thread.
	FlipAt []int
	// RecordSwitches enables SwitchEvents collection.
	RecordSwitches bool
	// SwitchEvents lists the access indices at which a preemption was
	// induced, in order (only collected when RecordSwitches is set).
	SwitchEvents []int

	nextFlip int // FlipAt entries already consumed

	// Switches counts induced preemptions, for reporting.
	Switches int
}

// reset makes p the scheduler of a new trial, keeping only its storage: an
// explorer runs every trial through one policy. flags persists across the
// trials of one concurrent test and is updated in place.
func (p *SnowboardPolicy) reset(rng *rand.Rand, currentPMCs []pmc.PMC, flags *flagSet) {
	cur := p.current[:0]
	for _, pm := range currentPMCs {
		cur = append(cur, sigOfKey(trace.Write, pm.Write), sigOfKey(trace.Read, pm.Read))
	}
	flags.trial++ // a new trial: no flag has fired in it
	*p = SnowboardPolicy{
		rng:          rng,
		current:      cur,
		flags:        flags,
		FlipAt:       p.FlipAt[:0],
		SwitchEvents: p.SwitchEvents[:0],
	}
	for _, s := range cur {
		p.watch.Sites.Add(s.ins, s.addr)
	}
	for _, f := range flags.list {
		p.watch.Sites.Add(f.ins, f.addr)
	}
}

// Watch implements vm.AccessSink; by the time a run takes it, FlipAt is set.
func (p *SnowboardPolicy) Watch() *vm.Watch {
	p.arm()
	return &p.watch
}

// arm sets the index at which the policy must be asked whatever the access:
// the next pending flip, or the access that completes the liveness window.
func (p *SnowboardPolicy) arm() {
	p.watch.Deadline = p.streakStart + livenessWindow - 1
	if p.nextFlip < len(p.FlipAt) {
		p.watch.Deadline = min(p.watch.Deadline, p.FlipAt[p.nextFlip])
	}
}

// OnAccess implements vm.AccessSink: the whole policy runs on the accessing
// thread's coroutine, and a yield back to the machine loop happens only when
// a preemption is requested. It draws from the rng exactly where a policy
// shown every access would.
func (p *SnowboardPolicy) OnAccess(m *vm.Machine, t *vm.Thread, a vm.AccessInfo) bool {
	doSwitch := false
	if !a.Stack {
		// Stack accesses are excluded from memory tracking (§4.4.1);
		// they are not PMC accesses, not flags, and not predecessors.
		s := sigOfInfo(&a)
		if slices.Contains(p.current, s) {
			// performed_pmc_access: remember the predecessor as a flag for
			// future trials and maybe reschedule now.
			if a.Prev.Size != 0 && p.flags.add(sig{addr: a.Prev.Addr, ins: a.Prev.Ins, kind: a.Prev.Kind, size: a.Prev.Size}) {
				p.watch.Sites.Add(a.Prev.Ins, a.Prev.Addr)
			}
			doSwitch = p.rng.Intn(switchDenom) == 0
		} else if p.flags.fire(s) {
			// pmc_access_coming: the next access is likely a PMC access.
			// Each flag fires once per trial; many flags are on hot
			// allocator sites and would otherwise thrash the schedule.
			doSwitch = p.rng.Intn(switchDenom) == 0
		}
	}
	if p.nextFlip < len(p.FlipAt) && p.FlipAt[p.nextFlip] == a.Index {
		p.nextFlip++
		doSwitch = !doSwitch
	}
	if a.Index-p.streakStart+1 >= livenessWindow {
		doSwitch = true
	}
	if doSwitch {
		p.streakStart = a.Index + 1
		p.Switches++
		if p.RecordSwitches {
			p.SwitchEvents = append(p.SwitchEvents, a.Index)
		}
	}
	p.arm()
	return doSwitch
}

// Pick implements vm.Scheduler. Accesses reach it only when OnAccess asked
// for a preemption; any other event is the running thread stopping by
// itself, which restarts the liveness window.
func (p *SnowboardPolicy) Pick(m *vm.Machine, last *vm.Thread, ev vm.Event) *vm.Thread {
	if ev.Kind != vm.EvStart && ev.Kind != vm.EvAccess {
		p.streakStart = m.AccessIndex()
		p.arm()
	}
	return pickNext(p.rng, m, last, ev)
}

// everyAccess, the zero Watch, is the baseline policies': they draw or count
// at every access. Read only.
var everyAccess vm.Watch

// SKIPolicy is the SKI-style baseline of §5.4. Two behaviors distinguish it
// from Algorithm 2, per the paper's comparison: it "yields thread execution
// whenever it observes the write or read instruction involved in a PMC
// (regardless of memory targets)", and "on its own has to consider all
// potential shared memory accesses, and randomly select a few to explore".
// Both make its preemptions far less targeted than Snowboard's
// address-precise PMC matching, which is why it needs many more
// interleavings per exposed bug and performs more vCPU switches.
type SKIPolicy struct {
	rng    *rand.Rand
	insSet map[trace.Ins]bool
	streak int

	// SharedPeriod is the average number of shared accesses between
	// candidate preemption points ("randomly select a few").
	SharedPeriod int

	// Switches counts induced preemptions.
	Switches int
}

// NewSKIPolicy builds the baseline scheduler from the PMC's instructions.
func NewSKIPolicy(rng *rand.Rand, hint *pmc.PMC) *SKIPolicy {
	ins := make(map[trace.Ins]bool, 2)
	if hint != nil {
		ins[hint.Write.Ins] = true
		ins[hint.Read.Ins] = true
	}
	return &SKIPolicy{rng: rng, insSet: ins, SharedPeriod: 16}
}

// OnAccess implements vm.AccessSink (same draw sequence as the old
// Pick-per-access flow).
func (p *SKIPolicy) OnAccess(m *vm.Machine, t *vm.Thread, a vm.AccessInfo) bool {
	doSwitch := false
	if p.insSet[a.Ins] {
		// Instruction match regardless of the access's memory target.
		doSwitch = p.rng.Intn(2) == 0
	} else if !a.Stack && p.rng.Intn(p.SharedPeriod) == 0 {
		// Any shared access is a candidate schedule point for SKI.
		doSwitch = p.rng.Intn(2) == 0
	}
	p.streak++
	if p.streak >= livenessWindow {
		doSwitch = true
	}
	if doSwitch {
		p.streak = 0
		p.Switches++
		return true
	}
	return false
}

// Watch implements vm.AccessSink.
func (p *SKIPolicy) Watch() *vm.Watch { return &everyAccess }

// Pick implements vm.Scheduler.
func (p *SKIPolicy) Pick(m *vm.Machine, last *vm.Thread, ev vm.Event) *vm.Thread {
	if ev.Kind != vm.EvStart && ev.Kind != vm.EvAccess {
		p.streak = 0
	}
	return pickNext(p.rng, m, last, ev)
}

// RandomWalkPolicy preempts with fixed probability 1/Period at every
// access — the unguided stress-testing baseline.
type RandomWalkPolicy struct {
	rng    *rand.Rand
	Period int // average accesses between preemptions
}

// NewRandomWalkPolicy builds the stress baseline.
func NewRandomWalkPolicy(rng *rand.Rand, period int) *RandomWalkPolicy {
	if period <= 0 {
		period = 20
	}
	return &RandomWalkPolicy{rng: rng, Period: period}
}

// OnAccess implements vm.AccessSink: one draw per access, switch on a hit.
func (p *RandomWalkPolicy) OnAccess(m *vm.Machine, t *vm.Thread, a vm.AccessInfo) bool {
	return p.rng.Intn(p.Period) == 0
}

// Watch implements vm.AccessSink.
func (p *RandomWalkPolicy) Watch() *vm.Watch { return &everyAccess }

// Pick implements vm.Scheduler. OnAccess already drew for an access that
// gets here.
func (p *RandomWalkPolicy) Pick(m *vm.Machine, last *vm.Thread, ev vm.Event) *vm.Thread {
	return pickNext(p.rng, m, last, ev)
}

// PCTPolicy implements a two-thread PCT-style scheduler: one thread holds
// the higher priority and runs whenever runnable; at d pre-chosen event
// indices the priorities invert. This is the schedule-exploration
// foundation Snowboard generalizes (§7).
type PCTPolicy struct {
	rng        *rand.Rand
	highIsZero bool
	changePts  map[int]bool
	eventIndex int
}

// NewPCTPolicy builds a PCT scheduler with depth d over an expected event
// horizon.
func NewPCTPolicy(rng *rand.Rand, depth, horizon int) *PCTPolicy {
	pts := make(map[int]bool, depth)
	for i := 0; i < depth; i++ {
		pts[rng.Intn(horizon)] = true
	}
	return &PCTPolicy{rng: rng, highIsZero: rng.Intn(2) == 0, changePts: pts}
}

// wantID returns the thread id currently holding the high priority.
func (p *PCTPolicy) wantID() int {
	if p.highIsZero {
		return 0
	}
	return 1
}

// OnAccess implements vm.AccessSink. Each access advances the event index
// (exactly as the old one-Pick-per-event flow did); a yield is requested
// only when the running thread is no longer the one Pick would choose.
func (p *PCTPolicy) OnAccess(m *vm.Machine, t *vm.Thread, a vm.AccessInfo) bool {
	p.eventIndex++
	if p.changePts[p.eventIndex] {
		p.highIsZero = !p.highIsZero
	}
	want := p.wantID()
	if t.ID == want {
		return false
	}
	runnable := m.Runnable()
	for _, th := range runnable {
		if th.ID == want {
			return true
		}
	}
	// High-priority thread not runnable: Pick would fall back to the first
	// runnable thread, so only yield if that is a different one.
	return len(runnable) > 0 && runnable[0] != t
}

// Watch implements vm.AccessSink.
func (p *PCTPolicy) Watch() *vm.Watch { return &everyAccess }

// Pick implements vm.Scheduler. Accesses were already counted by OnAccess;
// every other event advances the index here, so each event is counted once.
func (p *PCTPolicy) Pick(m *vm.Machine, last *vm.Thread, ev vm.Event) *vm.Thread {
	if ev.Kind != vm.EvAccess {
		p.eventIndex++
		if p.changePts[p.eventIndex] {
			p.highIsZero = !p.highIsZero
		}
	}
	want := p.wantID()
	runnable := m.Runnable()
	if len(runnable) == 0 {
		return nil
	}
	for _, t := range runnable {
		if t.ID == want {
			return t
		}
	}
	return runnable[0]
}
