package main

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"snowboard/internal/queue"
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
	if stdout.Len() != 0 {
		t.Fatalf("usage leaked to stdout:\n%s", stdout.String())
	}
}

func watchQueue(t *testing.T) *queue.Queue {
	t.Helper()
	q := queue.NewWithOptions(queue.Options{Name: "watch-test"})
	t.Cleanup(q.Close)
	if err := q.Push(queue.Job{ID: 1}); err != nil {
		t.Fatal(err)
	}
	return q
}

func TestRenderWatchTTYUsesANSI(t *testing.T) {
	q := watchQueue(t)
	frame := renderWatch(q, true)
	if !strings.HasPrefix(frame, "\x1b[H\x1b[2J") {
		t.Fatal("TTY frame does not repaint in place (missing cursor-home + clear-screen prefix)")
	}
	if !strings.Contains(frame, "pending=1") {
		t.Fatalf("TTY frame missing queue state:\n%s", frame)
	}
}

func TestRenderWatchNonTTYIsPlain(t *testing.T) {
	// Captured to a pipe or a log file, the dashboard must degrade to a
	// plain appending line: no escape bytes, one newline-terminated line
	// per frame.
	q := watchQueue(t)
	frame := renderWatch(q, false)
	if strings.ContainsRune(frame, '\x1b') {
		t.Fatalf("non-TTY frame contains ANSI escapes: %q", frame)
	}
	if !strings.HasSuffix(frame, "\n") || strings.Count(frame, "\n") != 1 {
		t.Fatalf("non-TTY frame is not a single appending line: %q", frame)
	}
	if !strings.Contains(frame, "pending=1") {
		t.Fatalf("non-TTY frame missing queue state: %q", frame)
	}
}

func TestIsTerminalOnPipe(t *testing.T) {
	// Test processes run with redirected stdio; both ends of a pipe are
	// definitively not character devices — the watch dashboard must pick
	// plain mode for them.
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	defer w.Close()
	if isTerminal(r) || isTerminal(w) {
		t.Fatal("isTerminal reported a pipe as a terminal")
	}
}

var listenRE = regexp.MustCompile(`queue listening on ([0-9.]+:[0-9]+)`)

// startCoordinator launches the coordinator on an ephemeral port and
// returns the running command, its address, and its stdout buffer.
func startCoordinator(t *testing.T, bin string) (*exec.Cmd, string, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-seed", "1", "-fuzz", "20", "-corpus", "8",
		"-tests", "3", "-lease", "10s", "-wait", "5s", "-progress", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderrPipe)
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, addr, &stdout
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		t.Fatal("coordinator never announced its listen address")
		return nil, "", nil
	}
}

// TestSbqueueDrainsWithWorker is the end-to-end smoke: the coordinator
// enqueues a tiny batch, one worker drains it, and the coordinator exits 0
// with a machine-readable summary on stdout.
func TestSbqueueDrainsWithWorker(t *testing.T) {
	coord := buildTool(t, "snowboard/cmd/sbqueue")
	worker := buildTool(t, "snowboard/cmd/sbexec")

	cmd, addr, stdout := startCoordinator(t, coord)
	defer cmd.Process.Kill()

	var wOut, wErr bytes.Buffer
	wcmd := exec.Command(worker,
		"-addr", addr, "-workers", "1", "-idle-exit", "2s", "-progress", "0")
	wcmd.Stdout, wcmd.Stderr = &wOut, &wErr
	if err := wcmd.Run(); err != nil {
		t.Fatalf("worker exit error: %v\nstderr:\n%s", err, wErr.String())
	}
	if wOut.Len() != 0 {
		t.Fatalf("worker chatter leaked to stdout:\n%s", wOut.String())
	}

	if err := cmd.Wait(); err != nil {
		t.Fatalf("coordinator exit error: %v\nstdout:\n%s", err, stdout.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "3/3 jobs reported") {
		t.Fatalf("summary missing job accounting:\n%s", out)
	}
	if !strings.Contains(out, "issues found") {
		t.Fatalf("summary missing issue list:\n%s", out)
	}
}
