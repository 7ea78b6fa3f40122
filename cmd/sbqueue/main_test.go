package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

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

// runCoordinator runs sbqueue to completion on an ephemeral port and
// returns its stdout; a nonzero exit fails the test.
func runCoordinator(t *testing.T, bin string, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-progress", "0"}, args...)...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("coordinator %v: %v\nstdout:\n%s\nstderr:\n%s", args, err, stdout.String(), stderr.String())
	}
	return stdout.String()
}

func TestSbqueueUsage(t *testing.T) {
	bin := buildTool(t, "snowboard/cmd/sbqueue")
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-h")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatal(err)
		}
	}
	if !strings.Contains(stderr.String(), "-lease") || !strings.Contains(stderr.String(), "-addr") {
		t.Fatalf("usage text missing flags:\n%s", stderr.String())
	}
	// The campaign folds once every job has settled or dead-lettered, and
	// -http serves what a terminal dashboard drew: neither flag is back.
	if m := regexp.MustCompile(`(?m)^\s+-(wait|watch)\b`).FindString(stderr.String()); m != "" {
		t.Fatalf("usage text lists %s:\n%s", strings.TrimSpace(m), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("usage leaked to stdout:\n%s", stdout.String())
	}
}

// TestSbqueueDrainsWithWorker is the end-to-end smoke: the coordinator
// enqueues a tiny batch, its own executor drains it with no worker joined,
// and it exits 0 with a machine-readable summary on stdout.
func TestSbqueueDrainsWithWorker(t *testing.T) {
	bin := buildTool(t, "snowboard/cmd/sbqueue")
	out := runCoordinator(t, bin, "-seed", "1", "-fuzz", "20", "-corpus", "8", "-tests", "3", "-lease", "10s")
	if !strings.Contains(out, "3/3 jobs reported") {
		t.Fatalf("summary missing job accounting:\n%s", out)
	}
	if !strings.Contains(out, "issues found") {
		t.Fatalf("summary missing issue list:\n%s", out)
	}
}

// TestSbqueueReportUnchanged pins the coordinator's stdout to goldens
// recorded from the hand-built queue coordinator it replaced, drained by
// one `sbexec -workers 2`: the campaign's report, alone, is byte-identical,
// minimized bundle digests included. With -state, a rerun on the same
// directory returns the campaign's memoized report, which is the same bytes.
func TestSbqueueReportUnchanged(t *testing.T) {
	bin := buildTool(t, "snowboard/cmd/sbqueue")
	for _, seed := range []string{"3", "7"} {
		args := []string{"-seed", seed, "-fuzz", "400", "-corpus", "120", "-tests", "60"}
		want, err := os.ReadFile(filepath.Join("testdata", "seed"+seed+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if got := runCoordinator(t, bin, args...); got != string(want) {
			t.Errorf("seed %s: report differs from the golden:\n%s\nwant:\n%s", seed, got, want)
		}
		want, err = os.ReadFile(filepath.Join("testdata", "seed"+seed+"-state.txt"))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		for _, run := range []string{"cold", "memoized"} {
			if got := runCoordinator(t, bin, append(args, "-state", dir)...); got != string(want) {
				t.Errorf("seed %s -state (%s): report differs from the golden:\n%s\nwant:\n%s", seed, run, got, want)
			}
		}
	}
}
