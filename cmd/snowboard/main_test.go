package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
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
	stdout, stderr, err := runTool(t, bin, append(listen, "-mode", "compare")...)
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 || stdout != "" {
		t.Fatalf("-listen -mode compare: %v, want exit 2 and no report\nstdout:\n%s\nstderr:\n%s", err, stdout, stderr)
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
// either, and the coordinator reports no delivery for it.
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
}
