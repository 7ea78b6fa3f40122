package sched

import (
	"math/rand"
	"slices"

	"snowboard/internal/cover"
	"snowboard/internal/detect"
	"snowboard/internal/obs"
	"snowboard/internal/vm"
)

// What a repeated trial's analysis would have counted: the trials the memo
// answered, and the raw and harmful findings detect.Analyze counts per trial;
// and the answered trials whose guest did not run either.
var (
	mRepeated  = obs.C(obs.MSchedRepeated)
	mReports   = obs.C(obs.MDetectReports)
	mHarmful   = obs.C(obs.MDetectHarmful)
	mPredicted = obs.C(obs.MSchedPredicted)
)

// trialMemo keeps the distinct decision logs (vm.Machine.Decisions) of one
// Explore call's trials, each with what analysing its trial contributed
// trial by trial: its segments, for the per-test accumulator's hit counts,
// and its raw and harmful finding counts. Every trial of a call starts from
// one memory image with the same two programs, so a trial whose log is kept
// ran as the kept one did, and the rest of its analysis adds nothing: its
// issues are already seen, its pairs covered and its channel verdict folded;
// none is crash-level (the kept trial would have ended the test) and no
// segment is fresh. The logs are compared whole; nothing is hashed.
//
// In Snowboard mode the memo also keys trials by the outcomes of their rng
// draws (startOutcome, coinOutcome), which are known before the guest runs:
// a trial whose rng, reseeded, draws a key's outcomes is that key's trial,
// and skips its guest as well as its analysis. A key is a trial whose guest
// ran and which learned no flag (a flag learned mid-trial is watched from
// the first access of every later trial, so no later trial runs under that
// trial's flags), with the flag count and PMC-set size it started with.
// Those grow only, so a key matches only trials that start from its own
// state: the same snapshot, programs, flags and PMCs under test, hence the
// same draw points with the same ranges, and by induction over the draws
// the same run (DESIGN row 68). Such a trial adopts nothing either: the
// key's own adoption step, under the same PMCs, found none. Only a key's
// decisive outcomes must match — the start pick and the coins tossed while
// another thread could run. A solo coin (soloDraw) keeps the running thread
// whatever it says, so it can only move Switches and the liveness window;
// a key whose trial ran fewer than livenessWindow steps cannot have been
// forced, nor can a trial that runs as it does, and only such a key leaves
// its solo coins unmatched.
type trialMemo struct {
	decisions []vm.Decision   // the entries' logs, back to back
	segs      []cover.Segment // the entries' segments, back to back
	entries   []memoEntry
	draws     []uint8 // the keys' draw outcomes, back to back
	keys      []memoKey

	trial  []uint8 // the running trial's draw outcomes, as its policy logs them
	starts int     // the runnable threads a trial's start pick draws among: one machine state, one count
	next   []uint8 // the next trial's draw outcomes, as far as predict has drawn them
	hit    memoKey // the key predict matched, with the predicted trial's own Switches
}

// memoEntry is one kept trial: its log and segments as ranges of the memo's
// storage, and its finding counts.
type memoEntry struct {
	d0, d1, s0, s1   int
	reports, harmful int64
}

// memoKey is one keyed trial: its draw outcomes as a range of the memo's
// storage, solo coins marked unless its Steps reach livenessWindow, the
// state it started in, its own Steps, its Switches less those its marked
// solo coins asked for (a solo switch is not in the decision log, so a
// trial of equal log may switch more or less), and the entry it made or
// matched.
type memoKey struct {
	c0, c1          int
	flags, pmcs     int
	steps, switches int
	entry           int
	trial           int // the trial's number in its test
}

// reset empties the memo for a new concurrent test, keeping its storage.
func (m *trialMemo) reset() {
	m.decisions, m.segs, m.entries = m.decisions[:0], m.segs[:0], m.entries[:0]
	m.draws, m.keys = m.draws[:0], m.keys[:0]
}

// find returns the index of the kept trial whose log equals log, or -1.
func (m *trialMemo) find(log []vm.Decision) int {
	for i := range m.entries {
		if e := &m.entries[i]; e.d1-e.d0 == len(log) && slices.Equal(m.decisions[e.d0:e.d1], log) {
			return i
		}
	}
	return -1
}

// add keeps a trial that find did not answer — its log, the segments its
// walk folded and the findings its analysis returned — and returns its
// index.
func (m *trialMemo) add(log []vm.Decision, segs []cover.Segment, issues []detect.Issue) int {
	e := memoEntry{d0: len(m.decisions), s0: len(m.segs), reports: int64(len(issues))}
	for _, is := range issues {
		if is.Harmful {
			e.harmful++
		}
	}
	m.decisions = append(m.decisions, log...)
	m.segs = append(m.segs, segs...)
	e.d1, e.s1 = len(m.decisions), len(m.segs)
	m.entries = append(m.entries, e)
	return len(m.entries) - 1
}

// record has p, just reset for a trial, log that trial's draw outcomes.
func (m *trialMemo) record(p *SnowboardPolicy) {
	m.trial = m.trial[:0]
	p.draws = &m.trial
}

// key keeps the trial p ran, whose guest ran and which learned no flag: k
// holds all but its draw outcomes, which p logged.
func (m *trialMemo) key(p *SnowboardPolicy, k memoKey) {
	k.c0, m.starts = len(m.draws), p.starts
	for _, o := range m.trial {
		switch {
		case k.steps >= livenessWindow:
			o &^= soloDraw // a liveness force may hang on it: matched exactly
		case o == soloDraw|1:
			k.switches--
		}
		m.draws = append(m.draws, o)
	}
	k.c1 = len(m.draws)
	m.keys = append(m.keys, k)
}

// predict returns the key of the trial that a trial starting with flags
// flags and pmcs PMCs under test, its rng seeded, would repeat, or nil.
// The key returned holds the trial's own Switches: the key's decisive ones
// and those the trial's solo coins ask for. It draws the trial's outcomes
// from rng once, as far as a key needs them.
func (m *trialMemo) predict(rng *rand.Rand, flags, pmcs int) *memoKey {
	m.next = m.next[:0]
	for i := range m.keys {
		k := &m.keys[i]
		if k.flags != flags || k.pmcs != pmcs {
			continue
		}
		if solo, ok := m.drawsAs(rng, m.draws[k.c0:k.c1]); ok {
			m.hit = *k
			m.hit.switches += solo
			return &m.hit
		}
	}
	return nil
}

// drawsAs reports whether the next trial's outcomes are out at its decisive
// draws, and how many of its solo coins ask for a switch, drawing more of
// its outcomes from rng as the comparison reaches them.
func (m *trialMemo) drawsAs(rng *rand.Rand, out []uint8) (solo int, ok bool) {
	for i, o := range out {
		switch {
		case i < len(m.next):
		case i == 0:
			m.next = append(m.next, startOutcome(rng, m.starts))
		default:
			m.next = append(m.next, coinOutcome(rng))
		}
		switch {
		case o&soloDraw != 0:
			solo += int(m.next[i])
		case m.next[i] != o:
			return 0, false
		}
	}
	return solo, true
}

// replay counts a repeat of entry i's trial as its analysis would have: one
// more hit of each of its segments in segs (if tracked) and its findings.
func (m *trialMemo) replay(i int, segs *cover.Segments) {
	e := &m.entries[i]
	mRepeated.Inc()
	mReports.Add(e.reports)
	mHarmful.Add(e.harmful)
	if segs != nil {
		segs.Add(m.segs[e.s0:e.s1])
	}
}
