// Package triage turns raw crash findings into actionable, deduplicated,
// minimized bug reports — ROADMAP item 5 ("report-to-repro").
//
// A finding as recorded by the explorer is a haystack: the trial's
// ConcurrentTest carries every syscall the fuzzer happened to compose, and
// its ReproState replays the full preemption schedule the scheduler rolled.
// Triage reduces both while re-replaying after every candidate edit and
// keeping the edit only if the same crash signature recurs:
//
//  1. test minimization — drop syscalls (and their resource dependents)
//     from the writer and reader programs to a fixpoint;
//  2. schedule minimization — ddmin over the unified decision set of
//     explicit ReproState.Flips plus the preemptions the trial's scheduler
//     rolled on its own (recorded via sched.ReplayRecorded), finishing
//     with a single-removal pass so the kept set is 1-minimal;
//  3. signature derivation — a stable crash-site + communication-channel
//     Signature that is independent of seed, trial, and addresses, so the
//     same bug found by different campaigns folds to one identity.
//
// The result is packaged as an SBRB bundle (see bundle.go) that
// `sbrepro -min <digest>` replays deterministically anywhere.
package triage

import (
	"errors"
	"fmt"
	"strings"

	"snowboard/internal/corpus"
	"snowboard/internal/detect"
	"snowboard/internal/exec"
	"snowboard/internal/pmc"
	"snowboard/internal/sched"
	"snowboard/internal/trace"
)

// Signature is the stable cross-campaign identity of a crash finding:
// which kind of failure, at which crash site, through which inter-thread
// communication channel. It deliberately excludes seed, trial index,
// addresses, and any other per-run detail, so two campaigns that expose
// the same bug produce the same Signature and fold in the dedup index.
type Signature struct {
	// Kind is the issue kind name ("panic", "fs-error", ...).
	Kind string `json:"kind"`
	// Site identifies where the kernel failed: "table2:<id>" for
	// classified bugs, "writeFn->readFn" for raw race sites, or the
	// digit-normalized console description otherwise.
	Site string `json:"site"`
	// Channel is the communication channel the bug flows through:
	// the classified bug's mechanism functions when known, else the
	// scheduling hint's write->read function pair.
	Channel string `json:"channel,omitempty"`
}

// Key renders the signature as a single stable string, usable as a map key
// and printed by sbrepro for CI comparison.
func (s Signature) Key() string {
	return s.Kind + "|" + s.Site + "|" + s.Channel
}

// IsZero reports whether the signature is empty.
func (s Signature) IsZero() bool { return s == Signature{} }

// normalizeDesc collapses every digit run in a console description to '#'
// so sector numbers, addresses, and counters do not leak per-run detail
// into the signature.
func normalizeDesc(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	inNum := false
	for _, r := range s {
		if r >= '0' && r <= '9' {
			if !inNum {
				b.WriteByte('#')
				inNum = true
			}
			continue
		}
		inNum = false
		b.WriteRune(r)
	}
	return b.String()
}

// channelOf renders a PMC hint as a write->read function pair.
func channelOf(hint *pmc.PMC) string {
	if hint == nil {
		return ""
	}
	return detect.SiteOf(hint.Write.Ins) + "->" + detect.SiteOf(hint.Read.Ins)
}

// SignatureOf derives the stable signature of one issue. For classified
// bugs the site is the Table 2 row and the channel is the row's mechanism
// function pair — both independent of which PMC hint happened to expose
// the bug in this campaign. Unclassified issues fall back to race sites or
// the normalized description, with the hint as channel.
func SignatureOf(is detect.Issue, hint *pmc.PMC) Signature {
	sig := Signature{Kind: is.Kind.String()}
	if is.BugID != 0 {
		sig.Site = fmt.Sprintf("table2:%d", is.BugID)
		if kb, ok := detect.BugByID(is.BugID); ok {
			sig.Channel = kb.WriteFn + "->" + kb.ReadFn
			return sig
		}
	}
	sig.Channel = channelOf(hint)
	if sig.Site != "" {
		return sig
	}
	switch {
	case is.WriteIns != trace.NoIns || is.ReadIns != trace.NoIns:
		sig.Site = detect.SiteOf(is.WriteIns) + "->" + detect.SiteOf(is.ReadIns)
	default:
		sig.Site = normalizeDesc(is.Desc)
	}
	return sig
}

// SignatureOfIssues picks the crash-level signature a trial exposes,
// preferring the issue classified as preferBugID when present (the
// finding being triaged), else the first crash-level issue in detector
// order. ok is false when no crash-level issue is present.
func SignatureOfIssues(issues []detect.Issue, hint *pmc.PMC, preferBugID int) (Signature, bool) {
	var first Signature
	found := false
	for _, is := range issues {
		if !detect.CrashLevel(is.Kind) {
			continue
		}
		if preferBugID != 0 && is.BugID == preferBugID {
			return SignatureOf(is, hint), true
		}
		if !found {
			first = SignatureOf(is, hint)
			found = true
		}
	}
	return first, found
}

// Finding is one crash-level issue to minimize: the concurrent test that
// exposed it and the recorded replay state of the crashing trial.
type Finding struct {
	Test  sched.ConcurrentTest
	State *sched.ReproState
	// BugID, when nonzero, selects which crash-level issue of the trial
	// is the minimization target (a trial can expose several).
	BugID int
}

// Options configures minimization.
type Options struct {
	// Detect configures the detector suite run after each replay. Must
	// match the campaign's options or signatures will not line up.
	Detect detect.Options
}

// DefaultMaxReplays caps the replays spent in the reduction loops. The
// final 1-minimality pass always runs to completion so the guarantee holds
// even when the cap bites.
const DefaultMaxReplays = 512

// Stats records pre/post minimization sizes and the replay cost.
type Stats struct {
	// Replays is the total number of candidate replays performed.
	Replays int `json:"replays"`
	// DecisionsOrig/DecisionsMin count schedule decisions (explicit
	// flips plus scheduler-rolled preemptions) before and after ddmin.
	DecisionsOrig int `json:"decisions_orig"`
	DecisionsMin  int `json:"decisions_min"`
	// SwitchesOrig/SwitchesMin count thread switches the replayed
	// schedule actually performs before and after minimization.
	SwitchesOrig int `json:"switches_orig"`
	SwitchesMin  int `json:"switches_min"`
	// Writer/Reader syscall counts before and after call dropping.
	WriterCallsOrig int `json:"writer_calls_orig"`
	WriterCallsMin  int `json:"writer_calls_min"`
	ReaderCallsOrig int `json:"reader_calls_orig"`
	ReaderCallsMin  int `json:"reader_calls_min"`
}

// Result is a minimized finding.
type Result struct {
	// Signature is the stable identity of the reproduced crash.
	Signature Signature
	// Test carries the minimized writer/reader programs (hint and
	// extras preserved from the original).
	Test sched.ConcurrentTest
	// State replays the minimized schedule.
	State *sched.ReproState
	Stats Stats
}

// ErrNoCrash is returned when the original finding does not reproduce a
// crash-level issue on replay (nothing to minimize against).
var ErrNoCrash = errors.New("triage: original trial does not reproduce a crash-level finding")

// Replayed is one re-executed trial and the detector suite's verdict on it.
type Replayed struct {
	Result exec.Result
	Trace  trace.Trace
	// Switches are the access indices at which the replayed schedule
	// switched threads, in occurrence order.
	Switches []int
	Issues   []detect.Issue
}

// Replay is the one way a recorded trial is re-executed and judged: replay
// (ct, st) in env with preemption recording, detach the trace, and run the
// detector suite (host-side fsck included) over the result. The minimizer,
// sbrepro and the replay tests all go through it, so a finding that
// reproduces for one reproduces for all.
func Replay(env *exec.Env, ct sched.ConcurrentTest, st *sched.ReproState, opt detect.Options) *Replayed {
	r := &Replayed{}
	r.Result, r.Switches = sched.ReplayRecorded(env, ct, st, &r.Trace)
	env.M.SetTrace(nil)
	r.Issues = detect.Analyze(detect.TrialInput{
		Console:  r.Result.Console,
		Trace:    &r.Trace,
		PostScan: env.K.FsckHost(),
		Hung:     r.Result.Hung,
		Deadlock: r.Result.Deadlock,
	}, opt)
	return r
}

type minimizer struct {
	env     *exec.Env
	opt     Options
	replays int
}

// replayRecord replays (ct, st) and returns the recorded switch indices
// and the issues.
func (m *minimizer) replayRecord(ct sched.ConcurrentTest, st *sched.ReproState) ([]int, []detect.Issue) {
	m.replays++
	r := Replay(m.env, ct, st, m.opt.Detect)
	return r.Switches, r.Issues
}

// exposes reports whether issues hold a crash-level issue signed target.
func exposes(issues []detect.Issue, hint *pmc.PMC, target Signature) bool {
	for _, is := range issues {
		if detect.CrashLevel(is.Kind) && SignatureOf(is, hint) == target {
			return true
		}
	}
	return false
}

// reproduces reports whether replaying (ct, st) still exposes target.
func (m *minimizer) reproduces(ct sched.ConcurrentTest, st *sched.ReproState, target Signature) bool {
	_, issues := m.replayRecord(ct, st)
	return exposes(issues, ct.Hint, target)
}

func (m *minimizer) exhausted() bool { return m.replays >= DefaultMaxReplays }

// Minimize reduces one crash finding: first the two test programs, then
// the preemption schedule, re-replaying each candidate and keeping it only
// when the original crash signature recurs. The returned test and state
// are never larger than the originals, and the schedule decision set is
// 1-minimal: removing any single kept decision loses the signature.
func Minimize(env *exec.Env, f Finding, opt Options) (*Result, error) {
	if f.State == nil {
		return nil, errors.New("triage: finding has no replay state")
	}
	if f.Test.Writer == nil || f.Test.Reader == nil {
		return nil, errors.New("triage: finding has no test programs")
	}
	m := &minimizer{env: env, opt: opt}

	// Baseline replay: establish the target signature and the original
	// schedule footprint.
	events, issues := m.replayRecord(f.Test, f.State)
	target, ok := SignatureOfIssues(issues, f.Test.Hint, f.BugID)
	if !ok {
		return nil, ErrNoCrash
	}
	stats := Stats{
		SwitchesOrig:    len(events),
		WriterCallsOrig: len(f.Test.Writer.Calls),
		ReaderCallsOrig: len(f.Test.Reader.Calls),
	}

	// Phase 1: drop syscalls from the writer, then the reader. Each drop
	// is kept only if the crash signature still reproduces under the
	// original schedule state, so soundness never depends on access-index
	// alignment surviving the edit.
	ct := f.Test
	ct.Writer = m.minimizeProg(ct.Writer, func(p *corpus.Prog) bool {
		cand := ct
		cand.Writer = p
		return m.reproduces(cand, f.State, target)
	})
	ct.Reader = m.minimizeProg(ct.Reader, func(p *corpus.Prog) bool {
		cand := ct
		cand.Reader = p
		return m.reproduces(cand, f.State, target)
	})
	stats.WriterCallsMin = len(ct.Writer.Calls)
	stats.ReaderCallsMin = len(ct.Reader.Calls)

	// Phase 2: re-record the schedule on the minimized programs (call
	// dropping shifts access indices), build the unified decision set,
	// and ddmin it down to a 1-minimal core.
	events, _ = m.replayRecord(ct, f.State)
	all := decisionSet(f.State.Flips, events)
	stats.DecisionsOrig = len(all)
	keep := m.ddmin(ct, f.State, target, all)
	stats.DecisionsMin = len(keep)
	st := candState(f.State, flipsFor(all, keep))

	// Final verify: the minimized bundle must reproduce, and its replay
	// gives the minimized switch count.
	events, issues = m.replayRecord(ct, st)
	if !exposes(issues, ct.Hint, target) {
		// Cannot happen: every accepted reduction step re-verified the
		// signature, and replay is deterministic. Guard anyway so a
		// regression surfaces as an error, not a bogus bundle.
		return nil, fmt.Errorf("triage: minimized candidate lost signature %s", target.Key())
	}
	stats.SwitchesMin = len(events)
	stats.Replays = m.replays
	return &Result{Signature: target, Test: ct, State: st, Stats: stats}, nil
}
