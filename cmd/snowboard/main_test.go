package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"snowboard/internal/core"
)

// buildTool compiles the command under test into a temp dir and returns
// the binary path.
func buildTool(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// runTool runs the binary with args, returning stdout, stderr, and the
// exit error (nil on status 0).
func runTool(t *testing.T, bin string, args ...string) (string, string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("run %s %v: %v", bin, args, err)
		}
	}
	return stdout.String(), stderr.String(), err
}

// mustRun runs the binary with args and returns its stdout; a nonzero
// exit fails the test.
func mustRun(t *testing.T, bin string, args ...string) string {
	t.Helper()
	stdout, stderr, err := runTool(t, bin, append([]string{"-progress", "0"}, args...)...)
	if err != nil {
		t.Fatalf("snowboard %v: %v\nstdout:\n%s\nstderr:\n%s", args, err, stdout, stderr)
	}
	return stdout
}

// listen is the coordinator's flag, on an ephemeral port.
var listen = []string{"-listen", "127.0.0.1:0"}

func TestSnowboardUsage(t *testing.T) {
	bin := buildTool(t, "snowboard/cmd/snowboard")
	stdout, stderr, _ := runTool(t, bin, "-h")
	for _, f := range []string{"-seed", "-trials"} {
		if !regexp.MustCompile(`(?m)^ +` + f + `\b`).MatchString(stderr) {
			t.Fatalf("usage text missing %s:\n%s", f, stderr)
		}
	}
	// Spans feed the *.duration_ns histograms; -events is the one JSONL
	// stream, so there is no span trace file to ask for.
	if regexp.MustCompile(`(?m)^ +-trace\b`).MatchString(stderr) {
		t.Fatalf("usage text lists -trace:\n%s", stderr)
	}
	if stdout != "" {
		t.Fatalf("usage leaked to stdout:\n%s", stdout)
	}
}

// TestListenUsage checks the coordinator's flags: a coordinator takes the
// queue's delivery defaults (sbd tunes them), listens on -listen, folds
// once every job has settled or dead-lettered, and -http serves what a
// terminal dashboard drew.
func TestListenUsage(t *testing.T) {
	bin := buildTool(t, "snowboard/cmd/snowboard")
	stdout, stderr, _ := runTool(t, bin, "-h")
	if !regexp.MustCompile(`(?m)^ +-listen\b`).MatchString(stderr) {
		t.Fatalf("usage text missing -listen:\n%s", stderr)
	}
	if m := regexp.MustCompile(`(?m)^ +-(lease|retries|addr|wait|watch)\b`).FindString(stderr); m != "" {
		t.Fatalf("usage text lists %s:\n%s", strings.TrimSpace(m), stderr)
	}
	if stdout != "" {
		t.Fatalf("usage leaked to stdout:\n%s", stdout)
	}
	// -listen coordinates one method's campaign.
	for _, mode := range []string{"compare", "profile"} {
		stdout, stderr, err := runTool(t, bin, append(listen, "-mode", mode)...)
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 || stdout != "" {
			t.Fatalf("-listen -mode %s: %v, want exit 2 and no report\nstdout:\n%s\nstderr:\n%s", mode, err, stdout, stderr)
		}
	}
}

// TestSpecRefusedOnEveryFrontDoor: the flags make one spec, checked before
// any mode starts. A zero seed, which a spec would read as the default,
// every budget or -workers past its ceiling, and a negative -rounds or
// -workers, which would run as the default, exit 2 in full mode, with
// -listen and with -mode profile, each with the same one-line message
// naming what is wrong, and print no report. No cell starts a run.
func TestSpecRefusedOnEveryFrontDoor(t *testing.T) {
	bin := buildTool(t, "snowboard/cmd/snowboard")
	past := func(flag string, ceiling int) [3]string {
		v := strconv.Itoa(ceiling + 1)
		return [3]string{"-" + flag, v, flag + "=" + v + "/"}
	}
	for _, cell := range [][3]string{
		{"-seed", "0", "-seed must be nonzero"},
		past("trials", core.MaxTrials),
		past("tests", core.MaxTestBudget),
		past("corpus", core.MaxCorpusCap),
		past("fuzz", core.MaxFuzzBudget),
		past("rounds", core.MaxFeedbackRounds),
		past("workers", core.MaxWorkers),
		{"-rounds", "-3", "rounds=-3 "},
		{"-workers", "-2", "workers=-2)"},
	} {
		var want string
		for _, door := range [][]string{nil, listen, profile} {
			args := append([]string{"-progress", "0", cell[0], cell[1]}, door...)
			stdout, stderr, err := runTool(t, bin, args...)
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 2 || stdout != "" ||
				strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, cell[2]) {
				t.Errorf("%v: %v, want exit 2, no report and one line naming %q\nstdout:\n%s\nstderr:\n%s",
					args, err, cell[2], stdout, stderr)
				continue
			}
			if want == "" {
				want = stderr
			} else if stderr != want {
				t.Errorf("%v: %q, want the message full mode gives, %q", args, stderr, want)
			}
		}
	}
}

// durations masks a profile run's timings.
var durations = regexp.MustCompile(`in [0-9.]+[µnm]?s`)

// profile is the stage 1–2 mode.
var profile = []string{"-mode", "profile"}

// TestProfileUsage: profiling is a mode of snowboard, with its flags; the
// knobs of the retired standalone profiler stay gone.
func TestProfileUsage(t *testing.T) {
	bin := buildTool(t, "snowboard/cmd/snowboard")
	stdout, stderr, _ := runTool(t, bin, "-h")
	if !regexp.MustCompile(`(?m)^ +-mode\b[^\n]*\n[^\n]*profile`).MatchString(stderr) {
		t.Fatalf("usage text does not offer -mode profile:\n%s", stderr)
	}
	if m := regexp.MustCompile(`(?m)^ +-(top|dump-tests)\b`).FindString(stderr); m != "" {
		t.Fatalf("usage text lists %s:\n%s", strings.TrimSpace(m), stderr)
	}
	if stdout != "" {
		t.Fatalf("usage leaked to stdout:\n%s", stdout)
	}
}

// TestProfileUnknownVersion: a version that is neither simulated kernel
// is a usage error, not a kernel silently booted without the version-gated
// bugs.
func TestProfileUnknownVersion(t *testing.T) {
	bin := buildTool(t, "snowboard/cmd/snowboard")
	stdout, stderr, err := runTool(t, bin, append(profile, "-version", "5.12", "-progress", "0")...)
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(stderr, `unknown kernel version "5.12"`) || stdout != "" {
		t.Fatalf("err=%v stdout=%q stderr=%q, want exit 2 naming the version", err, stdout, stderr)
	}
}

// TestProfileStats is the stage 1–2 smoke: a tiny profiling run exits 0
// and prints the corpus/PMC statistics on stdout with no diagnostic
// chatter mixed in; -v adds every corpus program, -json prints the stage
// 1–2 report instead, and a zero fuzz budget is refused as in every mode.
func TestProfileStats(t *testing.T) {
	bin := buildTool(t, "snowboard/cmd/snowboard")
	args := append(profile, "-seed", "1", "-fuzz", "30", "-corpus", "10")
	stdout := mustRun(t, bin, args...)
	for _, want := range []string{"corpus:", "profiling:", "PMCs:", "Strategy", "hottest 10 channels"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("stdout missing %q:\n%s", want, stdout)
		}
	}
	if strings.Contains(stdout, "snowboard:") || strings.Contains(stdout, "corpus programs:") {
		t.Fatalf("diagnostic chatter or programs on stdout without -v:\n%s", stdout)
	}

	m := regexp.MustCompile(`corpus: (\d+) tests`).FindStringSubmatch(stdout)
	if m == nil {
		t.Fatalf("no corpus size in:\n%s", stdout)
	}
	verbose := mustRun(t, bin, append(args, "-v")...)
	head, progs, ok := strings.Cut(verbose, "\ncorpus programs:\n")
	if n := strconv.Itoa(strings.Count(progs, "--- test ")); !ok || n != m[1] || !strings.HasPrefix(progs, "--- test 0 ---\n") {
		t.Fatalf("-v printed %s programs, want the corpus's %s:\n%s", n, m[1], verbose)
	}
	if durations.ReplaceAllString(head, "") != durations.ReplaceAllString(stdout, "") {
		t.Fatalf("-v changed the statistics:\n%s\nwant:\n%s", head, stdout)
	}

	var report map[string]any
	if err := json.Unmarshal([]byte(mustRun(t, bin, append(args, "-json")...)), &report); err != nil {
		t.Fatalf("-json: stdout is not one JSON report: %v", err)
	}
	if fmt.Sprint(report["CorpusSize"]) != m[1] || report["DistinctPMCs"] == float64(0) || report["TrialsRun"] != float64(0) {
		t.Fatalf("-json: corpus %v, %v PMCs, %v trials; want the printed corpus, PMCs and no trials",
			report["CorpusSize"], report["DistinctPMCs"], report["TrialsRun"])
	}

	stdout, stderr, err := runTool(t, bin, append(profile, "-fuzz", "0", "-progress", "0")...)
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 || stdout != "" || !strings.Contains(stderr, "-fuzz must be positive") {
		t.Fatalf("-fuzz 0: %v, want exit 2 and no statistics\nstdout:\n%s\nstderr:\n%s", err, stdout, stderr)
	}
}

// TestProfileAfterFullRunHitsFuzzMemo: every mode keeps the corpus in a
// state dir, so a profile run on a full run's -state takes the corpus
// from there, and prints what a stateless profile run prints.
func TestProfileAfterFullRunHitsFuzzMemo(t *testing.T) {
	bin := buildTool(t, "snowboard/cmd/snowboard")
	spec := []string{"-seed", "3", "-fuzz", "60", "-corpus", "20"}
	dir := t.TempDir()
	mustRun(t, bin, append(spec, "-tests", "4", "-trials", "2", "-state", dir)...)
	stdout, stderr, err := runTool(t, bin, append(append(profile, spec...), "-state", dir, "-progress", "0")...)
	if err != nil || !strings.Contains(stderr, "stage fuzz: cache hit") {
		t.Fatalf("profile on a full run's state: %v, want a fuzz cache hit\nstderr:\n%s", err, stderr)
	}
	if want := mustRun(t, bin, append(profile, spec...)...); durations.ReplaceAllString(stdout, "") != durations.ReplaceAllString(want, "") {
		t.Fatalf("profile from the memo:\n%s\nwant, as without -state:\n%s", stdout, want)
	}
}

// TestSnowboardJSONReport is the end-to-end smoke: a tiny full pipeline
// run must exit 0 and print exactly one machine-parseable JSON report on
// stdout (all chatter belongs on stderr).
func TestSnowboardJSONReport(t *testing.T) {
	bin := buildTool(t, "snowboard/cmd/snowboard")
	stdout, stderr, err := runTool(t, bin,
		"-seed", "1", "-fuzz", "30", "-corpus", "10", "-tests", "4", "-trials", "2",
		"-json", "-progress", "0")
	if err != nil {
		t.Fatalf("exit error: %v\nstderr:\n%s", err, stderr)
	}
	var report map[string]any
	if jerr := json.Unmarshal([]byte(stdout), &report); jerr != nil {
		t.Fatalf("stdout is not a single JSON document: %v\n%s", jerr, stdout)
	}
	for _, key := range []string{"CorpusSize", "DistinctPMCs", "TrialsRun"} {
		if _, ok := report[key]; !ok {
			t.Fatalf("report missing %q:\n%s", key, stdout)
		}
	}
}

// TestListenDrainsAlone is the coordinator's end-to-end smoke: the
// campaign enqueues a tiny batch, its own executor drains it with no
// worker joined, and it exits 0 with the delivery summary on stdout.
func TestListenDrainsAlone(t *testing.T) {
	bin := buildTool(t, "snowboard/cmd/snowboard")
	out := mustRun(t, bin, append(listen, "-seed", "1", "-fuzz", "20", "-corpus", "8", "-tests", "3")...)
	if !strings.Contains(out, "3/3 jobs reported") {
		t.Fatalf("summary missing job accounting:\n%s", out)
	}
	if !strings.Contains(out, "issues found") {
		t.Fatalf("summary missing issue list:\n%s", out)
	}
}

// TestListenReportUnchanged pins the coordinator's stdout to goldens: the
// campaign's report, alone, is byte-identical, minimized bundle digests
// included (the S-CH-NULL spec has a crash-level finding), and lists the
// findings `snowboard` reports at the same spec (60 tests leave clusters
// untested, so incidental adoption is live on both front doors). With
// -state, a rerun on the same directory returns the campaign's memoized
// report, which is the same bytes.
func TestListenReportUnchanged(t *testing.T) {
	bin := buildTool(t, "snowboard/cmd/snowboard")
	for _, c := range []struct{ golden, args string }{
		{"seed3", "-seed 3 -fuzz 400 -corpus 120 -tests 60"},
		{"seed7", "-seed 7 -fuzz 400 -corpus 120 -tests 60"},
		{"sch-null-seed3", "-method S-CH-NULL -seed 3 -fuzz 400 -corpus 100 -tests 60"},
	} {
		args := append(strings.Fields(c.args), listen...)
		want, err := os.ReadFile(filepath.Join("testdata", c.golden+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if got := mustRun(t, bin, args...); got != string(want) {
			t.Errorf("%s: report differs from the golden:\n%s\nwant:\n%s", c.args, got, want)
		}
		want, err = os.ReadFile(filepath.Join("testdata", c.golden+"-state.txt"))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		for _, run := range []string{"cold", "memoized"} {
			if got := mustRun(t, bin, append(args, "-state", dir)...); got != string(want) {
				t.Errorf("%s -state (%s): report differs from the golden:\n%s\nwant:\n%s", c.args, run, got, want)
			}
		}
	}
}

// TestListenReportEqualsLocal holds the two front doors of one spec to
// one report at the CLI: `snowboard -listen -json` (a campaign whose tests
// go through its queue) prints what `snowboard -json` prints, less the
// timings, the metrics and the delivery accounting only the queue has.
// A feedback spec whose strategy yields no cluster tests nothing on
// either, and the coordinator reports no delivery for it. A zero budget,
// which a campaign spec would read as "the default" and a local run as
// "none", is refused on both with exit 2 and no report.
func TestListenReportEqualsLocal(t *testing.T) {
	bin := buildTool(t, "snowboard/cmd/snowboard")
	report := func(args ...string) map[string]any {
		t.Helper()
		out := mustRun(t, bin, append(args, "-json")...)
		var r map[string]any
		if err := json.Unmarshal([]byte(out), &r); err != nil {
			t.Fatalf("%v: stdout is not one JSON report: %v\n%s", args, err, out)
		}
		return r
	}
	same := func(args []string, local, queued map[string]any) {
		t.Helper()
		for _, r := range []map[string]any{local, queued} {
			for k := range r {
				if k == "Metrics" || k == "Distributed" || k == "exec_per_min" || strings.HasSuffix(k, "Time") {
					delete(r, k)
				}
			}
		}
		for k := range local {
			if !reflect.DeepEqual(local[k], queued[k]) {
				t.Errorf("%v: -listen reports %s = %v, locally %v", args, k, queued[k], local[k])
			}
		}
		for k := range queued {
			if _, ok := local[k]; !ok {
				t.Errorf("%v: -listen reports %s = %v, locally nothing", args, k, queued[k])
			}
		}
	}
	for _, seed := range []string{"3", "7"} {
		for _, mode := range [][]string{nil, {"-feedback"}} {
			args := append([]string{"-seed", seed}, mode...)
			local, queued := report(args...), report(append(args, listen...)...)
			if queued["Distributed"] == nil || local["TestedTests"] == float64(0) {
				t.Fatalf("%v: degenerate run: %v tests, delivery %v", args, local["TestedTests"], queued["Distributed"])
			}
			same(args, local, queued)
		}
	}
	args := []string{"-feedback", "-method", "S-CH-UNALIGNED", "-fuzz", "1", "-corpus", "2", "-tests", "4"}
	local, queued := report(args...), report(append(args, listen...)...)
	if _, ok := queued["Distributed"]; ok || queued["TestedTests"] != float64(0) {
		t.Fatalf("%v: %v tests, delivery %v; want none of either", args, queued["TestedTests"], queued["Distributed"])
	}
	same(args, local, queued)

	for _, flag := range []string{"-fuzz", "-corpus", "-tests", "-trials"} {
		for _, door := range [][]string{nil, listen} {
			args := append([]string{"-seed", "3", flag, "0", "-json", "-progress", "0"}, door...)
			stdout, stderr, err := runTool(t, bin, args...)
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 2 || stdout != "" || !strings.Contains(stderr, flag+" must be positive") {
				t.Errorf("%v: %v, want exit 2, no report and the flag named\nstdout:\n%s\nstderr:\n%s", args, err, stdout, stderr)
			}
		}
	}
}

// TestListenJoinedWorkerExitsPromptly: a worker joined to `snowboard
// -listen` learns that the campaign is over from the queue itself — the
// coordinator closes it at the fold and serves on for a few join polls —
// so it exits 0 right after the coordinator, not after redialling a dead
// listener with backoff (about 11 s).
func TestListenJoinedWorkerExitsPromptly(t *testing.T) {
	bin := buildTool(t, "snowboard/cmd/snowboard")
	worker := buildTool(t, "snowboard/cmd/sbexec")
	coord := exec.Command(bin, append([]string{"-seed", "7", "-tests", "300", "-progress", "0"}, listen...)...)
	stderr, err := coord.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	join := regexp.MustCompile(`join with: sbexec -addr (\S+) -queue (\S+)`)
	var m []string
	var log strings.Builder
	sc := bufio.NewScanner(stderr)
	for m == nil && sc.Scan() {
		log.WriteString(sc.Text() + "\n")
		m = join.FindStringSubmatch(sc.Text())
	}
	if m == nil {
		coord.Wait()
		t.Fatalf("the coordinator logged no join line:\n%s", log.String())
	}
	go io.Copy(io.Discard, stderr)
	var wErr bytes.Buffer
	w := exec.Command(worker, "-addr", m[1], "-queue", m[2], "-workers", "2", "-idle-exit", "1m", "-progress", "0")
	w.Stderr = &wErr
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	if err := coord.Wait(); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	folded := time.Now()
	err = w.Wait()
	if after := time.Since(folded); err != nil || after > 2*time.Second {
		t.Fatalf("the worker exited %v, %v after the coordinator; want exit 0 within 2s\nstderr:\n%s", err, after, wErr.String())
	}
}
