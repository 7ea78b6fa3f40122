package detect

import (
	"sync"

	"snowboard/internal/cover"
	"snowboard/internal/obs"
	"snowboard/internal/trace"
)

// Oracle metrics: raw finding counts across all trials, process-wide.
var (
	mReports = obs.C(obs.MDetectReports)
	mHarmful = obs.C(obs.MDetectHarmful)
)

// Options toggles individual oracles. Races is the precise happens-before
// (FastTrack-style) analysis; the Eraser-style lockset analysis (FindRaces)
// is more predictive but flags correctly published RCU initialization as
// racy, and is kept as a cross-check outside the suite.
type Options struct {
	Console   bool
	Races     bool
	TornReads bool
}

// DefaultOptions enables every oracle.
func DefaultOptions() Options {
	return Options{Console: true, Races: true, TornReads: true}
}

// TrialInput is everything a trial hands to the oracles.
type TrialInput struct {
	Console  []string     // guest console lines (includes fault oopses)
	Trace    *trace.Trace // full access trace of the trial
	View     *trace.View  // the trial's view built over Trace, if the caller has one; nil builds one
	PostScan []string     // host-side post-mortem messages (e.g. fsck)
	Hung     bool
	Deadlock bool
	// Cover, when set, collects the trial's coverage for its Fold, riding
	// the happens-before walk — or walking the view itself if Races is off.
	Cover *cover.Walker
}

// Scratch is the reusable state of the trial oracles. An explorer keeps one
// and analyzes every trial through it, so a warm trial allocates only for
// what it finds. The zero value is ready to use; not safe for concurrent use.
type Scratch struct {
	view trace.View // of a trace that arrived without one
	hb   hbState
	last []trace.Ins
	seen map[IssueKey]bool
	out  []Issue

	// classified remembers ClassifyRace per racing pair: the same few pairs
	// race trial after trial, and classifying one builds strings.
	classified map[racePair]Issue
}

// racePair keys the classification memo: ClassifyRace reads nothing else of
// a report, and a torn read differs from a race of its pair by the prefix.
type racePair struct {
	w, r trace.Ins
	torn bool
}

// classify is ClassifyRace (marked and described as a torn read when torn)
// of a report between the two sites, remembered.
func (sc *Scratch) classify(w, r trace.Ins, torn bool) Issue {
	k := racePair{w, r, torn}
	is, ok := sc.classified[k]
	if !ok {
		is = ClassifyRace(RaceReport{Write: trace.Access{Ins: w}, Read: trace.Access{Ins: r}})
		if torn {
			is.Torn = true
			is.Desc = "Torn read: " + is.Desc
		}
		if sc.classified == nil {
			sc.classified = make(map[racePair]Issue)
		}
		sc.classified[k] = is
	}
	return is
}

// scratchPool backs the package-level Analyze and FindRacesHB, whose
// callers (triage replays, sbrepro) keep no state between traces.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// Analyze runs the enabled oracles over one trial and returns deduplicated,
// classified issues.
func Analyze(in TrialInput, opt Options) []Issue {
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	return append([]Issue(nil), sc.Analyze(in, opt)...)
}

// Analyze is the package-level Analyze on reused state. The returned slice
// is overwritten by the next call on the same Scratch.
func (sc *Scratch) Analyze(in TrialInput, opt Options) []Issue {
	if sc.seen == nil {
		sc.seen = make(map[IssueKey]bool)
	}
	clear(sc.seen)
	sc.out = sc.out[:0]
	add := func(is Issue) {
		if k := is.Key(); !sc.seen[k] {
			sc.seen[k] = true
			sc.out = append(sc.out, is)
		}
	}

	if opt.Console && len(in.Console)+len(in.PostScan) > 0 {
		sc.last = lastAccessByThread(in.Trace, sc.last[:0])
		for _, is := range CheckConsole(in.Console, sc.last) {
			add(is)
		}
		for _, is := range CheckConsole(in.PostScan, sc.last) {
			add(is)
		}
	}
	if in.Trace != nil && (opt.Races || in.Cover != nil) {
		v := in.View
		if v == nil {
			sc.view.Build(in.Trace)
			v = &sc.view
		}
		if !opt.Races {
			in.Cover.Walk(v)
		} else {
			for _, r := range sc.hb.findRaces(v, in.Cover) {
				add(sc.classify(r.Write.Ins, r.Read.Ins, false))
			}
		}
	}
	if opt.TornReads && in.Trace != nil {
		for _, t := range FindTornReads(in.Trace) {
			add(sc.classify(t.WriteIns, t.ReadIns, true))
		}
	}
	if in.Deadlock {
		add(Issue{Kind: KindDeadlock, Desc: "deadlock: all threads blocked"})
	}
	if in.Hung {
		add(Issue{Kind: KindHang, Desc: "hang: step budget exhausted"})
	}
	mReports.Add(int64(len(sc.out)))
	for _, is := range sc.out {
		if is.Harmful {
			mHarmful.Inc()
		}
		// Flight-record crash-level findings only: exploration breaks off on
		// a crash, so these stay bounded, while benign races show up in
		// nearly every trial and would flood the ring.
		if CrashLevel(is.Kind) {
			obs.Emit(obs.EvRaceFound, obs.A("kind", is.Kind.String()),
				obs.A("harmful", is.Harmful), obs.A("desc", is.Desc))
		}
	}
	return sc.out
}

// lastAccessByThread appends to last, indexed by thread id, the instruction
// of each thread's final recorded access (NoIns for none), to attribute faults.
func lastAccessByThread(tr *trace.Trace, last []trace.Ins) []trace.Ins {
	if tr == nil {
		return last
	}
	for i, n := 0, tr.Len(); i < n; i++ {
		t := tr.ThreadAt(i)
		for len(last) <= t {
			last = append(last, trace.NoIns)
		}
		last[t] = tr.InsAt(i)
	}
	return last
}
