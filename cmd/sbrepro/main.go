// Command sbrepro deterministically replays findings out of the artifact
// store a `snowboard -state dir` (or sbd) campaign wrote (§6 "Bug Diagnosis
// and Deterministic Reproduction"): it boots the matching simulated kernel,
// re-executes the recorded bug-exposing trial, and prints the kernel
// console plus the two-column interleaving diagnosis around the PMC.
//
// Usage:
//
//	sbrepro -state dir -min <digest> [-quiet]
//	sbrepro -state dir [-report <digest>] [-workers 0] [-quiet]
//
// The state dir is the only carrier of repro artifacts and SBRB
// (triage.Bundle, store kind "repro") the only bundle format. -min names a
// minimized SBRB bundle produced by the triage stage by (a unique prefix
// of) its hex digest; the replay recomputes the crash signature and checks
// it against the one recorded in the bundle, printing `signature: <key>`
// on success. -report names a stored report artifact the same way, and
// every crash-level finding in it that recorded a replayable trial is
// replayed unminimized. With an empty -min or -report, the matching stored
// artifacts are listed.
//
// Several findings of a report replay in parallel (one simulated kernel
// per worker) but print in issue order; replay itself is deterministic, so
// the output is byte-identical at any worker count.
//
// Exit status:
//
//	0  every replay reproduced a harmful finding (and, for -min, the
//	   recorded signature)
//	1  a replay ran but surfaced no harmful finding, or a -min replay's
//	   signature diverged from the recorded one — the artifact is stale
//	   relative to the current simulator, not damaged
//	2  usage errors: bad flags, missing state dir, no or ambiguous digest
//	   match
//	3  stale bundle: the artifact was written under a different bundle
//	   format version and must be regenerated (it was never replayed)
//	4  corrupt bundle: the artifact cannot be decoded at all — truncated,
//	   checksum-violating, or not a bundle
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

// classifyExit maps an artifact load/decode error to the documented exit
// code: format-version mismatches are stale (3), undecodable bytes are
// corrupt (4), and everything else — missing dirs, bad digests — is a
// usage error (2).
func classifyExit(err error) int {
	switch {
	case errors.Is(err, triage.ErrStale):
		return exitStaleBundle
	case errors.Is(err, triage.ErrCorrupt), errors.Is(err, store.ErrCorrupt):
		return exitCorruptBundle
	default:
		return exitUsage
	}
}

// fail prints a classified diagnostic to stderr and returns the exit code.
// Stale and corrupt bundles get distinct messages so scripts (and humans)
// can tell "regenerate this" from "this artifact is damaged".
func fail(err error) int {
	code := classifyExit(err)
	switch code {
	case exitStaleBundle:
		fmt.Fprintf(os.Stderr, "sbrepro: stale bundle (regenerate with the current tools): %v\n", err)
	case exitCorruptBundle:
		fmt.Fprintf(os.Stderr, "sbrepro: corrupt bundle (artifact is damaged, not merely old): %v\n", err)
	default:
		fmt.Fprintf(os.Stderr, "sbrepro: %v\n", err)
	}
	return code
}

func main() { os.Exit(run()) }

func run() int {
	var (
		stateDir = flag.String("state", "", "artifact store directory written by snowboard -state (required)")
		minD     = flag.String("min", "", "hex digest (or unique prefix) of a minimized SBRB repro bundle to replay; empty lists stored bundles")
		reportD  = flag.String("report", "", "hex digest (or unique prefix) of the stored report whose findings to replay; empty lists stored reports")
		workers  = flag.Int("workers", 0, "parallel replay goroutines (0 = one per CPU); output order is unaffected")
		quiet    = flag.Bool("quiet", false, "suppress the interleaving diagram")
		events   = flag.String("events", "", "append flight-recorder events to this file as JSONL")
	)
	flag.Parse()
	obs.Diag.SetPrefix("sbrepro")

	if *stateDir == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "sbrepro: findings replay out of a state dir and nothing else: -state <dir> is required, positional paths are not accepted (produce one with: snowboard -state <dir>)")
		flag.Usage()
		return exitUsage
	}
	if *events != "" {
		f, err := os.OpenFile(*events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		obs.Events.SetSink(f)
		defer obs.Events.SetSink(nil)
	}
	s, err := store.Open(*stateDir)
	if err != nil {
		return fail(err)
	}
	minSet := false
	flag.Visit(func(f *flag.Flag) { minSet = minSet || f.Name == "min" })
	if minSet {
		return replayMin(s, *minD, *quiet)
	}
	return replayReport(s, *reportD, *workers, *quiet)
}

// resolve is the one digest-prefix door: it names the single stored
// artifact of kind whose hex digest starts with prefix. An empty prefix
// lists the stored artifacts instead (each line annotated by describe, when
// given) and reports ok=false with the exit code to leave with; so do no
// match and an ambiguous match, both usage errors.
func resolve(s *store.Store, kind store.Kind, flagName, prefix string, describe func(store.Digest) string) (d store.Digest, code int, ok bool) {
	all := s.List(kind)
	if prefix == "" {
		if len(all) == 0 {
			fmt.Printf("no %s artifacts in %s — produce some with: snowboard -state %s\n", kind, s.Dir(), s.Dir())
			return d, exitUsage, false
		}
		fmt.Printf("%s artifacts in %s (replay with -%s <digest>):\n", kind, s.Dir(), flagName)
		for _, d := range all {
			line := "  " + d.String()
			if describe != nil {
				line += describe(d)
			}
			fmt.Println(line)
		}
		return d, exitOK, false
	}
	var match []store.Digest
	for _, d := range all {
		if strings.HasPrefix(d.String(), prefix) {
			match = append(match, d)
		}
	}
	switch len(match) {
	case 1:
		return match[0], exitOK, true
	case 0:
		fmt.Fprintf(os.Stderr, "sbrepro: no %s artifact matching %q in %s (run with empty -%s to list)\n", kind, prefix, s.Dir(), flagName)
	default:
		fmt.Fprintf(os.Stderr, "sbrepro: digest prefix %q is ambiguous: %d %s artifacts match\n", prefix, len(match), kind)
	}
	return d, exitUsage, false
}

// replay re-executes one recorded trial in a fresh kernel through the
// shared triage.Replay door and renders the console, findings, and (unless
// quiet) the interleaving diagram into w.
func replay(w *strings.Builder, version snowboard.Version, ct sched.ConcurrentTest, st *sched.ReproState, quiet bool) *triage.Replayed {
	env := snowboard.NewEnv(version)
	defer env.Close()
	r := triage.Replay(env, ct, st, detect.DefaultOptions())

	fmt.Fprintln(w, "\nguest console:")
	for _, l := range r.Result.Console {
		fmt.Fprintf(w, "  %s\n", l)
	}
	fmt.Fprintln(w, "\nfindings:")
	for _, is := range r.Issues {
		fmt.Fprintf(w, "  [%s] %s", is.Kind, is.Desc)
		if is.BugID != 0 {
			fmt.Fprintf(w, "  (Table 2 issue #%d)", is.BugID)
		}
		fmt.Fprintln(w)
	}
	if !quiet {
		fmt.Fprintln(w)
		fmt.Fprintln(w, diagnose.Render(&r.Trace, ct.Hint, r.Issues, diagnose.DefaultOptions()))
	}
	return r
}

// replayMin replays one minimized SBRB bundle, recomputes the crash
// signature from the replay, and checks it against the one recorded at
// triage time. Returns the process exit code.
func replayMin(s *store.Store, prefix string, quiet bool) int {
	d, code, ok := resolve(s, store.KindRepro, "min", prefix, func(d store.Digest) string {
		if b, err := triage.LoadBundle(s, d); err == nil {
			return "  " + b.Signature.Key()
		}
		return ""
	})
	if !ok {
		return code
	}
	b, err := triage.LoadBundle(s, d)
	if err != nil {
		return fail(fmt.Errorf("bundle %s: %w", d.Short(), err))
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "replaying minimized bundle %s (kernel %s", d.Short(), b.Kernel)
	if b.BugID != 0 {
		fmt.Fprintf(&sb, ", Table 2 issue #%d", b.BugID)
	}
	fmt.Fprintln(&sb, ")")
	r := replay(&sb, b.Kernel, b.Test(), b.State, quiet)
	fmt.Print(sb.String())

	// Staleness is judged on the recomputed crash signature, not on
	// whether the kernel crashed: console findings like fs-errors
	// reproduce without one.
	sig, ok := triage.SignatureOfIssues(r.Issues, b.Hint, b.BugID)
	if !ok {
		fmt.Fprintf(os.Stderr, "sbrepro: replay of bundle %s surfaced no harmful finding — stale relative to this simulator\n", d.Short())
		return exitStaleReplay
	}
	fmt.Printf("signature: %s\n", sig.Key())
	if sig != b.Signature {
		fmt.Fprintf(os.Stderr, "sbrepro: replay signature %q does not match recorded %q — bundle is stale\n", sig.Key(), b.Signature.Key())
		return exitStaleReplay
	}
	return exitOK
}

// replayReport replays every crash-level finding of a stored report that
// recorded a replayable trial. Returns the process exit code.
func replayReport(s *store.Store, prefix string, workers int, quiet bool) int {
	d, code, ok := resolve(s, store.KindReport, "report", prefix, nil)
	if !ok {
		return code
	}
	payload, err := s.Get(store.KindReport, d)
	if err != nil {
		return fail(fmt.Errorf("report artifact %s: %w", d.Short(), err))
	}
	var r snowboard.Report
	if err := json.Unmarshal(payload, &r); err != nil {
		return fail(fmt.Errorf("report artifact %s: %w: %v", d.Short(), store.ErrCorrupt, err))
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
		fmt.Printf("report %s: no replayable findings\n", d.Short())
		return exitStaleReplay
	}

	type replayOut struct {
		text  string
		stale bool
	}
	outs := par.Map(par.Workers(workers), len(recIDs), func(_, i int) replayOut {
		rec := r.Issues[recIDs[i]]
		var sb strings.Builder
		fmt.Fprintf(&sb, "replaying report %s issue #%d (kernel %s)\n", d.Short(), recIDs[i], r.Version)
		rp := replay(&sb, r.Version, rec.Test, rec.Repro, quiet)
		if t := rec.Triage; t != nil {
			fmt.Fprintf(&sb, "minimized: signature %s, bundle %s (replay with -min)\n", t.Signature, t.Bundle)
		}
		// As for -min, a finding reproduces when a crash-level issue
		// surfaces, kernel crash or not (fs-errors leave it running).
		_, ok := triage.SignatureOfIssues(rp.Issues, rec.Test.Hint, recIDs[i])
		return replayOut{text: sb.String(), stale: !ok}
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
