// Command sbrepro deterministically replays saved reproduction bundles
// (§6 "Bug Diagnosis and Deterministic Reproduction"): for each bundle it
// boots the matching simulated kernel, re-executes the recorded
// bug-exposing trial, and prints the kernel console plus the two-column
// interleaving diagnosis around the PMC.
//
// Usage:
//
//	sbrepro -bundle finding.json [-quiet]
//	sbrepro [-workers 0] [-quiet] finding1.json finding2.json ...
//	sbrepro -state dir [-report <digest>] [-quiet]
//	sbrepro -state dir -min <digest> [-quiet]
//
// With -state, sbrepro replays straight out of the content-addressed
// artifact store written by snowboard -state: -report names a stored report
// artifact by (a prefix of) its hex digest, and every crash-level finding
// in it that recorded a replayable trial is replayed. -min names a
// minimized SBRB repro bundle produced by the triage stage; the replay
// recomputes the crash signature and checks it against the one recorded in
// the bundle, printing `signature: <key>` on success. With -state and an
// empty -report (or -min), the matching stored artifacts are listed.
//
// Several bundles replay in parallel (one simulated kernel per worker)
// but print in argument order; replay itself is deterministic, so the
// output is byte-identical at any worker count.
//
// Exit status:
//
//	0  every replay reproduced a harmful finding (and, for -min, the
//	   recorded signature)
//	1  a replay ran but surfaced no harmful finding, or a -min replay's
//	   signature diverged from the recorded one — the bundle is stale
//	   relative to the current simulator, not damaged
//	2  usage errors: bad flags, missing files, no or ambiguous digest match
//	3  stale bundle: the artifact was written under a different bundle
//	   format version and must be regenerated (it was never replayed)
//	4  corrupt bundle: the artifact cannot be decoded at all — truncated,
//	   checksum-violating, or not a bundle
//
// Bundles are produced by cmd/snowboard's -repro-dir flag, by the triage
// stage of a -state campaign, or by callers of the library's Explore +
// SaveBundle.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"snowboard"
	"snowboard/internal/detect"
	"snowboard/internal/diagnose"
	"snowboard/internal/obs"
	"snowboard/internal/par"
	"snowboard/internal/sched"
	"snowboard/internal/store"
	"snowboard/internal/trace"
	"snowboard/internal/triage"
)

// Documented exit codes (see the package comment).
const (
	exitOK            = 0
	exitStaleReplay   = 1
	exitUsage         = 2
	exitStaleBundle   = 3
	exitCorruptBundle = 4
)

// classifyExit maps a bundle load/decode error to the documented exit code:
// format-version mismatches are stale (3), undecodable bytes are corrupt
// (4), and everything else — missing files, bad digests — is a usage
// error (2).
func classifyExit(err error) int {
	switch {
	case errors.Is(err, sched.ErrBundleStale), errors.Is(err, triage.ErrStale):
		return exitStaleBundle
	case errors.Is(err, sched.ErrBundleCorrupt), errors.Is(err, triage.ErrCorrupt), errors.Is(err, store.ErrCorrupt):
		return exitCorruptBundle
	default:
		return exitUsage
	}
}

// fail prints a classified diagnostic to stderr and exits. Stale and
// corrupt bundles get distinct messages so scripts (and humans) can tell
// "regenerate this" from "this artifact is damaged".
func fail(err error) {
	code := classifyExit(err)
	switch code {
	case exitStaleBundle:
		fmt.Fprintf(os.Stderr, "sbrepro: stale bundle (regenerate with the current tools): %v\n", err)
	case exitCorruptBundle:
		fmt.Fprintf(os.Stderr, "sbrepro: corrupt bundle (artifact is damaged, not merely old): %v\n", err)
	default:
		fmt.Fprintf(os.Stderr, "sbrepro: %v\n", err)
	}
	os.Exit(code)
}

func main() {
	var (
		path     = flag.String("bundle", "", "path to a reproduction bundle (JSON); positional arguments add more")
		workers  = flag.Int("workers", 0, "parallel replay goroutines (0 = one per CPU); output order is unaffected")
		quiet    = flag.Bool("quiet", false, "suppress the interleaving diagram")
		stateDir = flag.String("state", "", "artifact store directory: replay findings from a stored report instead of bundles")
		reportD  = flag.String("report", "", "hex digest (or unique prefix) of the stored report to replay; empty lists stored reports")
		minD     = flag.String("min", "", "hex digest (or unique prefix) of a minimized SBRB repro bundle to replay; empty lists stored bundles (requires -state)")
		events   = flag.String("events", "", "append flight-recorder events to this file as JSONL")
	)
	flag.Parse()
	obs.Diag.SetPrefix("sbrepro")

	if *events != "" {
		f, err := os.OpenFile(*events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		obs.Events.SetSink(f)
		defer obs.Events.SetSink(nil)
	}

	if minSet() {
		if *stateDir == "" {
			fmt.Fprintln(os.Stderr, "sbrepro: -min requires -state <dir>")
			os.Exit(exitUsage)
		}
		os.Exit(replayMin(*stateDir, *minD, *quiet))
	}

	if *stateDir != "" {
		os.Exit(replayStore(*stateDir, *reportD, *workers, *quiet))
	}

	paths := flag.Args()
	if *path != "" {
		paths = append([]string{*path}, paths...)
	}
	if len(paths) == 0 {
		flag.Usage()
		os.Exit(exitUsage)
	}

	type replayOut struct {
		text  string
		stale bool
		err   error
	}
	outs := par.Map(par.Workers(*workers), len(paths), func(_, i int) replayOut {
		var sb strings.Builder
		stale, err := replayBundle(&sb, paths[i], *quiet)
		return replayOut{text: sb.String(), stale: stale, err: err}
	})

	exit := exitOK
	for i, out := range outs {
		if i > 0 {
			fmt.Println()
		}
		if out.err != nil {
			fail(fmt.Errorf("%s: %w", paths[i], out.err))
		}
		fmt.Print(out.text)
		if out.stale {
			obs.Diag.Printf("warning: replay of %s surfaced no harmful finding — bundle may be stale", paths[i])
			exit = exitStaleReplay
		}
	}
	os.Exit(exit)
}

// minSet reports whether -min was given on the command line (so an empty
// value still means "list the stored bundles").
func minSet() bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "min" {
			set = true
		}
	})
	return set
}

// replayBundle loads and replays one bundle, rendering the full report
// into w. It returns stale=true when the replay surfaced no harmful
// finding — the recorded interleaving no longer exposes the bug.
func replayBundle(w *strings.Builder, path string, quiet bool) (stale bool, err error) {
	b, err := sched.LoadBundle(path)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "replaying %s (kernel %s", path, b.Version)
	if b.BugID != 0 {
		fmt.Fprintf(w, ", Table 2 issue #%d", b.BugID)
	}
	fmt.Fprintln(w, ")")
	ct := sched.ConcurrentTest{Writer: b.Writer, Reader: b.Reader, Hint: b.Hint}
	stale, _ = replayState(w, b.Version, ct, b.State, quiet)
	return stale, nil
}

// replayState re-executes one recorded bug-exposing trial and renders the
// console, findings, and (unless quiet) the interleaving diagram into w.
// It returns stale=true when the replay surfaced no harmful finding, plus
// the detected issues so callers can recompute crash signatures.
func replayState(w *strings.Builder, version snowboard.Version, ct sched.ConcurrentTest, st *sched.ReproState, quiet bool) (stale bool, issues []detect.Issue) {
	env := snowboard.NewEnv(version)
	defer env.Close()
	var tr trace.Trace
	res := sched.Replay(env, ct, st, &tr)
	env.M.SetTrace(nil)

	issues = detect.Analyze(detect.TrialInput{
		Console:  res.Console,
		Trace:    &tr,
		PostScan: env.K.FsckHost(),
		Hung:     res.Hung,
		Deadlock: res.Deadlock,
	}, detect.DefaultOptions())

	fmt.Fprintln(w, "\nguest console:")
	for _, l := range res.Console {
		fmt.Fprintf(w, "  %s\n", l)
	}
	fmt.Fprintln(w, "\nfindings:")
	for _, is := range issues {
		fmt.Fprintf(w, "  [%s] %s", is.Kind, is.Desc)
		if is.BugID != 0 {
			fmt.Fprintf(w, "  (Table 2 issue #%d)", is.BugID)
		}
		fmt.Fprintln(w)
	}
	if !quiet {
		fmt.Fprintln(w)
		fmt.Fprintln(w, diagnose.Render(&tr, ct.Hint, issues, diagnose.DefaultOptions()))
	}
	return !res.Crashed() && detect.Harmless(issues), issues
}

// replayMin replays one minimized SBRB repro bundle out of the artifact
// store, recomputes the crash signature from the replay, and checks it
// against the one recorded at triage time. An empty digest prefix lists
// the stored bundles with their signatures. Returns the process exit code.
func replayMin(dir, digestPrefix string, quiet bool) int {
	s, err := store.Open(dir)
	if err != nil {
		fail(err)
	}
	bundles := s.List(store.KindRepro)
	if digestPrefix == "" {
		if len(bundles) == 0 {
			fmt.Printf("no repro bundles in %s — produce some with: snowboard -state %s\n", dir, dir)
			return exitUsage
		}
		fmt.Printf("minimized repro bundles in %s (replay with -min <digest>):\n", dir)
		for _, d := range bundles {
			line := fmt.Sprintf("  %s", d)
			if b, err := triage.LoadBundle(s, d); err == nil {
				line += fmt.Sprintf("  %s", b.Signature.Key())
			}
			fmt.Println(line)
		}
		return exitOK
	}
	var match []store.Digest
	for _, d := range bundles {
		if strings.HasPrefix(d.String(), digestPrefix) {
			match = append(match, d)
		}
	}
	switch {
	case len(match) == 0:
		fmt.Fprintf(os.Stderr, "sbrepro: no repro bundle matching %q in %s (run with empty -min to list)\n", digestPrefix, dir)
		return exitUsage
	case len(match) > 1:
		fmt.Fprintf(os.Stderr, "sbrepro: digest prefix %q is ambiguous: %d matches\n", digestPrefix, len(match))
		return exitUsage
	}
	b, err := triage.LoadBundle(s, match[0])
	if err != nil {
		fail(fmt.Errorf("bundle %s: %w", match[0].Short(), err))
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "replaying minimized bundle %s (kernel %s", match[0].Short(), b.Kernel)
	if b.BugID != 0 {
		fmt.Fprintf(&sb, ", Table 2 issue #%d", b.BugID)
	}
	fmt.Fprintln(&sb, ")")
	// Staleness for minimized bundles is judged on the recomputed crash
	// signature, not on replayState's crash-centric heuristic: console
	// findings like fs-errors reproduce without a kernel crash.
	_, issues := replayState(&sb, b.Kernel, b.Test(), b.State, quiet)
	fmt.Print(sb.String())

	sig, ok := triage.SignatureOfIssues(issues, b.Hint, b.BugID)
	if !ok {
		fmt.Fprintf(os.Stderr, "sbrepro: replay of bundle %s surfaced no harmful finding — stale relative to this simulator\n", match[0].Short())
		return exitStaleReplay
	}
	fmt.Printf("signature: %s\n", sig.Key())
	if sig != b.Signature {
		fmt.Fprintf(os.Stderr, "sbrepro: replay signature %q does not match recorded %q — bundle is stale\n", sig.Key(), b.Signature.Key())
		return exitStaleReplay
	}
	return exitOK
}

// replayStore replays every crash-level finding of a stored report artifact
// that recorded a replayable trial, or lists the stored reports when no
// digest is given. Returns the process exit code.
func replayStore(dir, digestPrefix string, workers int, quiet bool) int {
	st, err := snowboard.OpenStore(dir)
	if err != nil {
		fail(err)
	}
	reports := st.List(snowboard.KindReport)
	if digestPrefix == "" {
		if len(reports) == 0 {
			fmt.Printf("no report artifacts in %s — produce one with: snowboard -state %s\n", dir, dir)
			return exitUsage
		}
		fmt.Printf("report artifacts in %s (replay with -report <digest>):\n", dir)
		for _, d := range reports {
			fmt.Printf("  %s\n", d)
		}
		return exitOK
	}
	var match []snowboard.Digest
	for _, d := range reports {
		if strings.HasPrefix(d.String(), digestPrefix) {
			match = append(match, d)
		}
	}
	switch {
	case len(match) == 0:
		fmt.Fprintf(os.Stderr, "sbrepro: no report artifact matching %q in %s (run without -report to list)\n", digestPrefix, dir)
		return exitUsage
	case len(match) > 1:
		fmt.Fprintf(os.Stderr, "sbrepro: digest prefix %q is ambiguous: %d matches\n", digestPrefix, len(match))
		return exitUsage
	}
	payload, err := st.Get(snowboard.KindReport, match[0])
	if err != nil {
		fail(fmt.Errorf("report artifact %s: %w", match[0].Short(), err))
	}
	var r snowboard.Report
	if err := json.Unmarshal(payload, &r); err != nil {
		fail(fmt.Errorf("report artifact %s: %w: %v", match[0].Short(), store.ErrCorrupt, err))
	}

	var recIDs []int
	for _, id := range r.BugIDs() {
		if r.Issues[id].Repro == nil {
			obs.Diag.Printf("issue #%d has no recorded replayable trial; skipping", id)
			continue
		}
		recIDs = append(recIDs, id)
	}
	if len(recIDs) == 0 {
		fmt.Printf("report %s: no replayable findings\n", match[0].Short())
		return exitStaleReplay
	}

	type replayOut struct {
		text  string
		stale bool
	}
	outs := par.Map(par.Workers(workers), len(recIDs), func(_, i int) replayOut {
		rec := r.Issues[recIDs[i]]
		var sb strings.Builder
		fmt.Fprintf(&sb, "replaying report %s issue #%d (kernel %s)\n", match[0].Short(), recIDs[i], r.Version)
		stale, _ := replayState(&sb, r.Version, rec.Test, rec.Repro, quiet)
		if t := rec.Triage; t != nil {
			fmt.Fprintf(&sb, "minimized: signature %s, bundle %s (replay with -min)\n", t.Signature, t.Bundle)
		}
		return replayOut{text: sb.String(), stale: stale}
	})
	exit := exitOK
	for i, out := range outs {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(out.text)
		if out.stale {
			obs.Diag.Printf("warning: replay of issue #%d surfaced no harmful finding — stored trial may be stale", recIDs[i])
			exit = exitStaleReplay
		}
	}
	return exit
}
