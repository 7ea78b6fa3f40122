package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
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
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-h")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatal(err)
		}
	}
	if !strings.Contains(stderr.String(), "-idle-exit") || !strings.Contains(stderr.String(), "-trials") ||
		!strings.Contains(stderr.String(), "-queue") {
		t.Fatalf("usage text missing flags:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("usage leaked to stdout:\n%s", stdout.String())
	}
}

var listenRE = regexp.MustCompile(`queue listening on ([0-9.]+:[0-9]+)`)

// TestSbexecProcessesJobs is the end-to-end smoke: against a live
// coordinator, the worker leases and reports the whole batch, exits 0, and
// keeps stdout machine-clean (all chatter belongs on stderr).
func TestSbexecProcessesJobs(t *testing.T) {
	worker := buildTool(t, "snowboard/cmd/sbexec")
	coord := buildTool(t, "snowboard/cmd/sbqueue")

	ccmd := exec.Command(coord,
		"-addr", "127.0.0.1:0", "-seed", "1", "-fuzz", "20", "-corpus", "8",
		"-tests", "2", "-lease", "10s", "-wait", "5s", "-progress", "0")
	var cOut bytes.Buffer
	ccmd.Stdout = &cOut
	stderrPipe, err := ccmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := ccmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer ccmd.Process.Kill()
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
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(60 * time.Second):
		t.Fatal("coordinator never announced its listen address")
	}

	var wOut, wErr bytes.Buffer
	wcmd := exec.Command(worker,
		"-addr", addr, "-trials", "2", "-workers", "1", "-idle-exit", "2s", "-progress", "0")
	wcmd.Stdout, wcmd.Stderr = &wOut, &wErr
	if err := wcmd.Run(); err != nil {
		t.Fatalf("worker exit error: %v\nstderr:\n%s", err, wErr.String())
	}
	if wOut.Len() != 0 {
		t.Fatalf("worker chatter leaked to stdout:\n%s", wOut.String())
	}
	if !strings.Contains(wErr.String(), "processed") {
		t.Fatalf("worker never reported processing jobs:\n%s", wErr.String())
	}

	if err := ccmd.Wait(); err != nil {
		t.Fatalf("coordinator exit error: %v\nstdout:\n%s", err, cOut.String())
	}
	if !strings.Contains(cOut.String(), "2/2 jobs reported") {
		t.Fatalf("coordinator summary missing job accounting:\n%s", cOut.String())
	}
}

// TestSbexecDrainsNamedCampaignQueue: `sbexec -queue campaign.<id>` joins
// one campaign on a multi-queue listener, as the sbd docs promise. The
// campaign's own executor is held at its start gate until the external
// worker has drained the queue, so every result folded into the report is
// sbexec's — and the report must equal the one the in-process executor
// produces alone.
func TestSbexecDrainsNamedCampaignQueue(t *testing.T) {
	worker := buildTool(t, "snowboard/cmd/sbexec")
	spec := core.CampaignSpec{Name: "joined", Seed: 3, FuzzBudget: 150, CorpusCap: 40, TestBudget: 6, Trials: 4}

	run := func(external bool) []byte {
		reg := queue.NewRegistry(queue.Options{})
		defer reg.Close()
		srv, err := queue.ServeRegistry(reg, "127.0.0.1:0", queue.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		gate := make(chan struct{})
		c, err := core.StartCampaign(spec, core.CampaignEnv{Registry: reg, Addr: srv.Addr(), ExecGate: gate})
		if err != nil {
			t.Fatal(err)
		}
		if external {
			deadline := time.Now().Add(60 * time.Second)
			for c.Status().Expected == 0 {
				if time.Now().After(deadline) {
					t.Fatal("campaign never pushed its jobs")
				}
				time.Sleep(5 * time.Millisecond)
			}
			var wErr bytes.Buffer
			wcmd := exec.Command(worker, "-addr", srv.Addr(), "-queue", c.QueueName(),
				"-trials", strconv.Itoa(spec.Trials), "-workers", "1", "-idle-exit", "200ms", "-progress", "0")
			wcmd.Stderr = &wErr
			if err := wcmd.Run(); err != nil {
				t.Fatalf("worker exit error: %v\nstderr:\n%s", err, wErr.String())
			}
			if st := reg.Get(c.QueueName()).Stats(); st.Pending != 0 || st.Leased != 0 || st.Done != spec.TestBudget {
				t.Fatalf("sbexec left the campaign queue unsettled: %+v\nstderr:\n%s", st, wErr.String())
			}
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
	alone, joined := run(false), run(true)
	if !bytes.Equal(alone, joined) {
		t.Fatalf("report folded from sbexec's results differs from the in-process executor's:\n%s\nvs\n%s", joined, alone)
	}
}
