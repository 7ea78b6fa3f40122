package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"snowboard/internal/store"
	"snowboard/internal/triage"
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

// exitCode is the process exit status behind runTool's error.
func exitCode(err error) int {
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	return 0
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

func TestSbreproUsage(t *testing.T) {
	bin := buildTool(t, "snowboard/cmd/sbrepro")
	stdout, stderr, _ := runTool(t, bin, "-h")
	if !strings.Contains(stderr, "-min") || !strings.Contains(stderr, "-state") {
		t.Fatalf("usage text missing flags:\n%s", stderr)
	}
	if stdout != "" {
		t.Fatalf("usage leaked to stdout:\n%s", stdout)
	}
}

// TestSbreproListsStoredReports is the end-to-end smoke: a tiny snowboard
// pipeline run persists its report into an artifact store, and sbrepro
// pointed at the same store must exit 0 and list that report's digest.
func TestSbreproListsStoredReports(t *testing.T) {
	pipeline := buildTool(t, "snowboard/cmd/snowboard")
	repro := buildTool(t, "snowboard/cmd/sbrepro")
	state := t.TempDir()

	_, stderr, err := runTool(t, pipeline,
		"-seed", "1", "-fuzz", "30", "-corpus", "10", "-tests", "4", "-trials", "2",
		"-state", state, "-json", "-progress", "0")
	if err != nil {
		t.Fatalf("pipeline exit error: %v\nstderr:\n%s", err, stderr)
	}

	stdout, stderr, err := runTool(t, repro, "-state", state)
	if err != nil {
		t.Fatalf("sbrepro exit error: %v\nstderr:\n%s\nstdout:\n%s", err, stderr, stdout)
	}
	if !strings.Contains(stdout, "report artifacts in "+state) {
		t.Fatalf("stored report listing missing:\n%s", stdout)
	}
	// At least one digest line follows the header.
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) < 2 || strings.TrimSpace(lines[1]) == "" {
		t.Fatalf("no report digest listed:\n%s", stdout)
	}
}

// TestClassifyExit pins the documented exit-code mapping: format-version
// mismatches are stale (3), undecodable artifacts are corrupt (4), and
// everything else — missing files, bad digests — is usage (2).
func TestClassifyExit(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"triage stale", fmt.Errorf("bundle: %w", triage.ErrStale), exitStaleBundle},
		{"triage corrupt", fmt.Errorf("bundle: %w", triage.ErrCorrupt), exitCorruptBundle},
		{"store corrupt", fmt.Errorf("get: %w", store.ErrCorrupt), exitCorruptBundle},
		{"missing file", fs.ErrNotExist, exitUsage},
		{"other", errors.New("boom"), exitUsage},
	}
	for _, tc := range cases {
		if got := classifyExit(tc.err); got != tc.want {
			t.Errorf("%s: classifyExit = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// plant files raw bytes as a repro artifact, bypassing triage.Encode's
// validation, exactly like an old or damaged fleet member would leave them.
func plant(t *testing.T, s *store.Store, data string) store.Digest {
	t.Helper()
	d, err := s.Put(store.KindRepro, []byte(data))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// ambiguousPrefix plants junk repro artifacts until two stored digests
// share their first hex digit, and returns that digit.
func ambiguousPrefix(t *testing.T, s *store.Store) string {
	t.Helper()
	seen := map[byte]bool{}
	for _, d := range s.List(store.KindRepro) {
		seen[d.String()[0]] = true
	}
	for i := 0; i <= 16; i++ {
		c := plant(t, s, fmt.Sprintf("junk-%d", i)).String()[0]
		if seen[c] {
			return string(c)
		}
		seen[c] = true
	}
	t.Fatal("17 digests without a shared first digit")
	return ""
}

// TestLoadMinBundleStaleVsCorrupt covers the -min load path: SBRB bundles
// written under other format versions are stale; damaged payloads are
// corrupt.
func TestLoadMinBundleStaleVsCorrupt(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		data   string
		wantIs error
		exit   int
	}{
		{"garbage", "not a bundle", triage.ErrCorrupt, exitCorruptBundle},
		{"pre-format writer", `{"kernel":"5.12-rc3"}`, triage.ErrStale, exitStaleBundle},
		{"future format", `{"format":2}`, triage.ErrStale, exitStaleBundle},
		{"right format, invalid body", `{"format":1}`, triage.ErrCorrupt, exitCorruptBundle},
	}
	for _, tc := range cases {
		d := plant(t, s, tc.data)
		_, err := triage.LoadBundle(s, d)
		if err == nil {
			t.Fatalf("%s: no error", tc.name)
		}
		if !errors.Is(err, tc.wantIs) {
			t.Errorf("%s: error %v is not %v", tc.name, err, tc.wantIs)
		}
		if got := replayMin(s, d.String(), true); got != tc.exit {
			t.Errorf("%s: replayMin exit %d, want %d", tc.name, got, tc.exit)
		}
	}
}

// TestResolveUsagePaths: no match and ambiguous digest prefixes are usage
// errors (2) for either artifact kind, never reported as stale or corrupt.
func TestResolveUsagePaths(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if replayMin(s, "deadbeef", true) != exitUsage || replayReport(s, "deadbeef", 1, true) != exitUsage {
		t.Fatal("no-match prefix should be a usage error")
	}
	if replayMin(s, ambiguousPrefix(t, s), true) != exitUsage {
		t.Fatal("ambiguous prefix should be a usage error")
	}
	if _, code, ok := resolve(s, store.KindRepro, "min", s.List(store.KindRepro)[0].String(), nil); !ok || code != exitOK {
		t.Fatalf("a full digest must resolve: ok=%v code=%d", ok, code)
	}
}

// TestSbreproMinAndReport drives the built binaries end to end: a campaign
// that triages its findings into a state dir, then every stored bundle
// through `-state -min` and the stored report through `-state -report`,
// both over the one digest-prefix resolver.
func TestSbreproMinAndReport(t *testing.T) {
	pipeline := buildTool(t, "snowboard/cmd/snowboard")
	repro := buildTool(t, "snowboard/cmd/sbrepro")
	state := t.TempDir()

	stdout, stderr, err := runTool(t, pipeline,
		"-method", "S-CH-NULL", "-seed", "3", "-fuzz", "400", "-corpus", "100", "-tests", "60", "-trials", "24",
		"-state", state, "-json", "-progress", "0")
	if err != nil {
		t.Fatalf("pipeline exit error: %v\nstderr:\n%s", err, stderr)
	}
	var report struct {
		Issues map[string]struct {
			Triage *struct {
				Signature string `json:"signature"`
				Bundle    string `json:"bundle"`
			}
		}
	}
	if err := json.Unmarshal([]byte(stdout), &report); err != nil {
		t.Fatalf("report JSON: %v", err)
	}
	s, err := store.Open(state)
	if err != nil {
		t.Fatal(err)
	}

	// Every bundle the report names replays to its recorded signature.
	bundles := 0
	for id, rec := range report.Issues {
		if rec.Triage == nil {
			continue
		}
		bundles++
		out, errOut, err := runTool(t, repro, "-state", state, "-min", rec.Triage.Bundle[:16], "-quiet")
		if err != nil {
			t.Fatalf("issue #%s: -min exit %d\nstderr:\n%s", id, exitCode(err), errOut)
		}
		if want := "signature: " + rec.Triage.Signature + "\n"; !strings.Contains(out, want) {
			t.Fatalf("issue #%s: -min output lacks %q:\n%s", id, want, out)
		}
	}
	if bundles == 0 || bundles != len(s.List(store.KindRepro)) {
		t.Fatalf("report names %d bundles, store holds %d", bundles, len(s.List(store.KindRepro)))
	}
	if out, _, err := runTool(t, repro, "-state", state, "-min", ""); err != nil || strings.Count(out, "\n") != bundles+1 {
		t.Fatalf("-min listing: err=%v\n%s", err, out)
	}

	// The stored report replays every finding that recorded a trial.
	reports := s.List(store.KindReport)
	if len(reports) != 1 {
		t.Fatalf("store holds %d reports, want 1", len(reports))
	}
	out, errOut, err := runTool(t, repro, "-state", state, "-report", reports[0].Short(), "-quiet")
	if err != nil {
		t.Fatalf("-report exit %d\nstderr:\n%s", exitCode(err), errOut)
	}
	if n := strings.Count(out, "replaying report "); n != bundles {
		t.Fatalf("-report replayed %d findings, want %d:\n%s", n, bundles, out)
	}

	// Usage (2), stale (3) and corrupt (4) through the same door.
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"no -state", []string{"-min", reports[0].String()}, exitUsage},
		{"positional path", []string{"-state", state, "finding.json"}, exitUsage},
		{"no bundle match", []string{"-state", state, "-min", "deadbeef"}, exitUsage},
		{"no report match", []string{"-state", state, "-report", "deadbeef"}, exitUsage},
		{"stale bundle", []string{"-state", state, "-min", plant(t, s, `{"format":2}`).String()}, exitStaleBundle},
		{"corrupt bundle", []string{"-state", state, "-min", plant(t, s, "not a bundle").String()}, exitCorruptBundle},
		{"ambiguous prefix", []string{"-state", state, "-min", ambiguousPrefix(t, s)}, exitUsage},
	} {
		if _, errOut, err := runTool(t, repro, tc.args...); exitCode(err) != tc.want {
			t.Errorf("%s: exit %d, want %d\nstderr:\n%s", tc.name, exitCode(err), tc.want, errOut)
		}
	}
}
