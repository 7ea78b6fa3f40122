package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"snowboard/internal/core"
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

func TestSbexecUsage(t *testing.T) {
	bin := buildTool(t, "snowboard/cmd/sbexec")
	// A listener with no queue at all: a worker naming any queue on it
	// must fail loudly rather than exit 0 having processed nothing.
	srv, err := queue.ServeRegistry(queue.NewRegistry(queue.Options{}), "127.0.0.1:0", queue.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, tc := range []struct {
		name     string
		args     []string
		exit     int
		contains []string
	}{
		{"help", []string{"-h"}, 0, []string{"-idle-exit", "-queue"}},
		{"no queue", []string{"-addr", srv.Addr()}, 2, []string{"-queue is required", "-idle-exit"}},
		{"unknown queue", []string{"-addr", srv.Addr(), "-queue", "campaign.nope", "-progress", "0"}, 1,
			[]string{`unknown queue`, `"campaign.nope"`, srv.Addr()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, tc.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			exit := 0
			if err := cmd.Run(); err != nil {
				var ee *exec.ExitError
				if !errors.As(err, &ee) {
					t.Fatal(err)
				}
				exit = ee.ExitCode()
			}
			if exit != tc.exit {
				t.Fatalf("exit %d, want %d\nstderr:\n%s", exit, tc.exit, stderr.String())
			}
			for _, want := range tc.contains {
				if !strings.Contains(stderr.String(), want) {
					t.Fatalf("stderr missing %q:\n%s", want, stderr.String())
				}
			}
			// The trial budget travels with each job; a worker has none of its own.
			if strings.Contains(stderr.String(), "-trials") {
				t.Fatalf("usage text lists -trials:\n%s", stderr.String())
			}
			if stdout.Len() != 0 {
				t.Fatalf("usage leaked to stdout:\n%s", stdout.String())
			}
		})
	}
}

// startGated starts spec as a campaign on a TCP-served registry with the
// campaign's own executor held at its start gate, and returns once the
// campaign has pushed its jobs.
func startGated(t *testing.T, spec core.CampaignSpec, stateDir string) (*queue.Registry, string, *core.Campaign, chan struct{}) {
	t.Helper()
	reg := queue.NewRegistry(queue.Options{})
	t.Cleanup(reg.Close)
	srv, err := queue.ServeRegistry(reg, "127.0.0.1:0", queue.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	gate := make(chan struct{})
	c, err := core.StartCampaign(spec, core.CampaignEnv{Registry: reg, StateDir: stateDir, ExecGate: gate})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for c.Status().Expected == 0 {
		if time.Now().After(deadline) {
			t.Fatal("campaign never pushed its jobs")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return reg, srv.Addr(), c, gate
}

// drainWith runs the sbexec binary against c's queue until it idles out,
// and checks what a worker owes its caller: exit 0, stdout clean (all
// chatter belongs on stderr), its job count on stderr, and every job of
// the queue settled.
func drainWith(t *testing.T, worker string, reg *queue.Registry, addr string, c *core.Campaign, stateDir string, jobs int) {
	t.Helper()
	args := []string{"-addr", addr, "-queue", c.QueueName(),
		"-workers", "1", "-idle-exit", "200ms", "-progress", "0"}
	if stateDir != "" {
		args = append(args, "-state", stateDir)
	}
	var wOut, wErr bytes.Buffer
	wcmd := exec.Command(worker, args...)
	wcmd.Stdout, wcmd.Stderr = &wOut, &wErr
	if err := wcmd.Run(); err != nil {
		t.Fatalf("worker exit error: %v\nstderr:\n%s", err, wErr.String())
	}
	if wOut.Len() != 0 {
		t.Fatalf("worker chatter leaked to stdout:\n%s", wOut.String())
	}
	if want := fmt.Sprintf("processed %d jobs", jobs); !strings.Contains(wErr.String(), want) {
		t.Fatalf("worker stderr missing %q:\n%s", want, wErr.String())
	}
	if st := reg.Get(c.QueueName()).Stats(); st.Pending != 0 || st.Leased != 0 || st.Done != jobs {
		t.Fatalf("sbexec left the campaign queue unsettled: %+v\nstderr:\n%s", st, wErr.String())
	}
}

// TestSbexecProcessesJobs is the end-to-end smoke: against a live
// coordinator whose own executor waits, the worker leases and reports the
// whole batch, exits 0 and keeps stdout machine-clean, and the campaign
// folds every job it reported.
func TestSbexecProcessesJobs(t *testing.T) {
	worker := buildTool(t, "snowboard/cmd/sbexec")
	spec := core.CampaignSpec{Name: "smoke", Seed: 1, FuzzBudget: 20, CorpusCap: 8, TestBudget: 2, Trials: 4}
	reg, addr, c, gate := startGated(t, spec, "")
	drainWith(t, worker, reg, addr, c, "", spec.TestBudget)
	close(gate)
	r, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if d := r.Distributed; d == nil || d.Reported != spec.TestBudget || d.Expected != spec.TestBudget {
		t.Fatalf("coordinator accounting: %+v, want %d/%d jobs reported", d, spec.TestBudget, spec.TestBudget)
	}
}

// TestSbexecDrainsNamedCampaignQueue: `sbexec -queue campaign.<id>` joins
// one campaign on a multi-queue listener, as sbqueue and sbd serve it. The
// campaign's own executor is held at its start gate until the external
// worker has drained the queue, so every result folded into the report is
// sbexec's — and the report must equal the one the in-process executor
// produces alone. The worker is given no trial budget: each job carries
// the campaign's. With a state dir shared by the campaign and the worker,
// jobs travel by reference and sbexec resolves them from the store.
func TestSbexecDrainsNamedCampaignQueue(t *testing.T) {
	worker := buildTool(t, "snowboard/cmd/sbexec")
	spec := core.CampaignSpec{Name: "joined", Seed: 3, FuzzBudget: 150, CorpusCap: 40, TestBudget: 6, Trials: 4}

	run := func(external, state bool) []byte {
		stateDir := ""
		if state {
			stateDir = t.TempDir()
		}
		reg, addr, c, gate := startGated(t, spec, stateDir)
		if external {
			drainWith(t, worker, reg, addr, c, stateDir, spec.TestBudget)
		}
		close(gate)
		r, err := c.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if st := c.Status(); st.Executed != int64(spec.TestBudget) || r.TestedTests != spec.TestBudget {
			t.Fatalf("status says %d executed, report folded %d of %d tests", st.Executed, r.TestedTests, spec.TestBudget)
		}
		r.FuzzTime, r.ProfileTime, r.IdentifyTime, r.ClusterTime, r.ExecTime = 0, 0, 0, 0, 0
		payload, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	for _, state := range []bool{false, true} {
		alone, joined := run(false, state), run(true, state)
		if !bytes.Equal(alone, joined) {
			t.Fatalf("state=%t: report folded from sbexec's results differs from the in-process executor's:\n%s\nvs\n%s", state, joined, alone)
		}
	}
}
