package sched

import (
	"slices"

	"snowboard/internal/cover"
	"snowboard/internal/detect"
	"snowboard/internal/obs"
	"snowboard/internal/vm"
)

// What a repeated trial's analysis would have counted: the trials the memo
// answered, and the raw and harmful findings detect.Analyze counts per trial.
var (
	mRepeated = obs.C(obs.MSchedRepeated)
	mReports  = obs.C(obs.MDetectReports)
	mHarmful  = obs.C(obs.MDetectHarmful)
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
type trialMemo struct {
	decisions []vm.Decision   // the entries' logs, back to back
	segs      []cover.Segment // the entries' segments, back to back
	entries   []memoEntry
}

// memoEntry is one kept trial: its log and segments as ranges of the memo's
// storage, and its finding counts.
type memoEntry struct {
	d0, d1, s0, s1   int
	reports, harmful int64
}

// reset empties the memo for a new concurrent test, keeping its storage.
func (m *trialMemo) reset() {
	m.decisions, m.segs, m.entries = m.decisions[:0], m.segs[:0], m.entries[:0]
}

// find returns the kept trial whose log equals log, or nil.
func (m *trialMemo) find(log []vm.Decision) *memoEntry {
	for i := range m.entries {
		if e := &m.entries[i]; e.d1-e.d0 == len(log) && slices.Equal(m.decisions[e.d0:e.d1], log) {
			return e
		}
	}
	return nil
}

// add keeps a trial that find did not answer: its log, the segments its
// walk folded and the findings its analysis returned.
func (m *trialMemo) add(log []vm.Decision, segs []cover.Segment, issues []detect.Issue) {
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
}

// replay counts a repeat of e's trial as its analysis would have: one more
// hit of each of its segments in segs (if tracked) and its findings.
func (m *trialMemo) replay(e *memoEntry, segs *cover.Segments) {
	mRepeated.Inc()
	mReports.Add(e.reports)
	mHarmful.Add(e.harmful)
	if segs != nil {
		segs.Add(m.segs[e.s0:e.s1])
	}
}
