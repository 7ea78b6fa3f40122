package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
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

func TestSbprofileUsage(t *testing.T) {
	bin := buildTool(t, "snowboard/cmd/sbprofile")
	stdout, stderr, _ := runTool(t, bin, "-h")
	if !strings.Contains(stderr, "-fuzz") || !strings.Contains(stderr, "-corpus") {
		t.Fatalf("usage text missing flags:\n%s", stderr)
	}
	if stdout != "" {
		t.Fatalf("usage leaked to stdout:\n%s", stdout)
	}
}

// TestSbprofileUnknownVersion: a version that is neither simulated kernel
// is a usage error, not a kernel silently booted without the version-gated
// bugs.
func TestSbprofileUnknownVersion(t *testing.T) {
	bin := buildTool(t, "snowboard/cmd/sbprofile")
	stdout, stderr, err := runTool(t, bin, "-version", "5.12", "-progress", "0")
	if err == nil || !strings.Contains(stderr, `unknown kernel version "5.12"`) || stdout != "" {
		t.Fatalf("err=%v stdout=%q stderr=%q, want a non-zero exit naming the version", err, stdout, stderr)
	}
}

// TestSbprofileStats is the end-to-end smoke: a tiny profiling run must
// exit 0 and print the corpus/PMC statistics on stdout with no diagnostic
// chatter mixed in.
func TestSbprofileStats(t *testing.T) {
	bin := buildTool(t, "snowboard/cmd/sbprofile")
	stdout, stderr, err := runTool(t, bin,
		"-seed", "1", "-fuzz", "30", "-corpus", "10", "-top", "3", "-progress", "0")
	if err != nil {
		t.Fatalf("exit error: %v\nstderr:\n%s", err, stderr)
	}
	for _, want := range []string{"corpus:", "profiling:", "PMCs:", "Strategy"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("stdout missing %q:\n%s", want, stdout)
		}
	}
	if strings.Contains(stdout, "sbprofile:") {
		t.Fatalf("diagnostic chatter leaked to stdout:\n%s", stdout)
	}

	// An exhausted fuzz budget selects no tests: 0 accesses over 0 tests
	// is 0 per test, not NaN.
	stdout, stderr, err = runTool(t, bin, "-fuzz", "0", "-progress", "0")
	if err != nil {
		t.Fatalf("empty budget: exit error: %v\nstderr:\n%s", err, stderr)
	}
	if !strings.Contains(stdout, "(0 accesses/test)") {
		t.Fatalf("empty budget: stdout missing \"(0 accesses/test)\":\n%s", stdout)
	}
}
