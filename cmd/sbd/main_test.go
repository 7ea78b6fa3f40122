package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"snowboard/internal/core"
	"snowboard/internal/obs"
	"snowboard/internal/queue"
)

// testSpec is a campaign small enough to run many of concurrently.
func testSpec(name string, seed int64) core.CampaignSpec {
	return core.CampaignSpec{
		Name:       name,
		Seed:       seed,
		FuzzBudget: 60,
		CorpusCap:  20,
		TestBudget: 6,
		Trials:     4,
		Workers:    2,
	}
}

// newTestPlane builds a full control plane — registry, TCP queue
// listener, fair scheduler, HTTP server — returning the server handle,
// its HTTP base URL, and a cleanup-registered teardown.
func newTestPlane(t *testing.T, env core.CampaignEnv) (*server, string) {
	t.Helper()
	if env.Registry == nil {
		env.Registry = queue.NewRegistry(queue.Options{})
	}
	t.Cleanup(env.Registry.Close)
	if env.Addr == "" {
		qsrv, err := queue.ServeRegistry(env.Registry, "127.0.0.1:0", queue.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(qsrv.Close)
		env.Addr = qsrv.Addr()
	}
	s := newServer(env)
	hs := httptest.NewServer(s.handler())
	t.Cleanup(hs.Close)
	return s, hs.URL
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", url, err)
		}
	}
	return resp.StatusCode
}

// detailWire keeps the report as raw bytes so restart tests can compare
// it byte-for-byte.
type detailWire struct {
	Status core.CampaignStatus `json:"status"`
	Report json.RawMessage     `json:"report"`
}

func TestControlPlaneHTTP(t *testing.T) {
	s, base := newTestPlane(t, core.CampaignEnv{Turns: core.NewTurnScheduler(2)})

	// Submit: 201 on first, 200 (same ID) on idempotent resubmission.
	spec := testSpec("http", 11)
	code, body := postJSON(t, base+"/campaigns", spec)
	if code != http.StatusCreated {
		t.Fatalf("first submit: status %d (%s)", code, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" || sub.Trace == "" {
		t.Fatalf("submit reply incomplete: %+v", sub)
	}
	code, body = postJSON(t, base+"/campaigns", spec)
	if code != http.StatusOK {
		t.Fatalf("resubmit: status %d", code)
	}
	var again submitResponse
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if again.ID != sub.ID {
		t.Fatalf("resubmission created a new campaign: %s vs %s", again.ID, sub.ID)
	}

	// Bad specs are rejected, not half-started.
	if code, _ := postJSON(t, base+"/campaigns", core.CampaignSpec{Method: "NOPE"}); code != http.StatusBadRequest {
		t.Fatalf("bad method: status %d, want 400", code)
	}
	// "5.12" is neither simulated kernel: it would boot one with none of
	// the version-gated bugs and memoize a report under that label.
	if code, body := postJSON(t, base+"/campaigns", core.CampaignSpec{Version: "5.12"}); code != http.StatusBadRequest ||
		!strings.Contains(string(body), "unknown kernel version") {
		t.Fatalf("bad version: status %d body %q, want 400 naming the version", code, body)
	}

	// A body past the 1 MiB bound is refused before it is decoded, let
	// alone started.
	huge := []byte(`{"name":"` + strings.Repeat("a", 2<<20) + `"}`)
	resp, err := http.Post(base+"/campaigns", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec: status %d, want 413", resp.StatusCode)
	}
	if n := len(s.list()); n != 1 {
		t.Fatalf("oversized spec left %d campaigns, want 1", n)
	}

	// Pause stalls the executed counter; resume lets it finish.
	if code, _ := postJSON(t, base+"/campaigns/"+sub.ID+"/pause", struct{}{}); code != http.StatusOK {
		t.Fatalf("pause: status %d", code)
	}
	if code, _ := postJSON(t, base+"/campaigns/"+sub.ID+"/resume", struct{}{}); code != http.StatusOK {
		t.Fatalf("resume: status %d", code)
	}
	if _, err := s.get(sub.ID).Wait(); err != nil {
		t.Fatal(err)
	}

	// Listing and detail.
	var list []core.CampaignStatus
	if code := getJSON(t, base+"/campaigns", &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(list) != 1 || list[0].ID != sub.ID || list[0].State != core.CampaignDone {
		t.Fatalf("list = %+v", list)
	}
	var detail detailWire
	if code := getJSON(t, base+"/campaigns/"+sub.ID, &detail); code != http.StatusOK {
		t.Fatalf("detail: status %d", code)
	}
	if len(detail.Report) == 0 {
		t.Fatal("done campaign served no report")
	}
	if detail.Status.Executed == 0 || detail.Status.Expected == 0 {
		t.Fatalf("detail status = %+v", detail.Status)
	}

	// Per-campaign events: every event carries this campaign's trace.
	var page obs.EventsPage
	if code := getJSON(t, base+"/campaigns/"+sub.ID+"/events", &page); code != http.StatusOK {
		t.Fatalf("events: status %d", code)
	}
	if len(page.Events) == 0 {
		t.Fatal("campaign recorded no events")
	}
	kinds := map[string]bool{}
	for _, ev := range page.Events {
		if ev.Trace != sub.Trace {
			t.Fatalf("foreign event in campaign stream: %+v", ev)
		}
		kinds[ev.Kind] = true
	}
	if !kinds[obs.EvCampaignStart] || !kinds[obs.EvCampaignDone] {
		t.Fatalf("campaign stream missing lifecycle events: %v", kinds)
	}
	resp, err = http.Get(base + "/campaigns/" + sub.ID + "/events?since=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad cursor: status %d, want 400", resp.StatusCode)
	}

	// Unknown campaigns 404; the obs surface still serves underneath.
	if code := getJSON(t, base+"/campaigns/ffffffffffff", nil); code != http.StatusNotFound {
		t.Fatalf("unknown campaign: status %d", code)
	}
	if code := getJSON(t, base+"/progress", nil); code != http.StatusOK {
		t.Fatalf("/progress under campaign mux: status %d", code)
	}
}

func TestChaosFleetFairAndLossless(t *testing.T) {
	// The acceptance gauntlet: 8 concurrent campaigns through one control
	// plane, every queue byte flowing through seeded FlakyConns (severs +
	// delays), plus injected worker crashes (abandoned leases). Nothing
	// may be lost or double-counted, and the fair scheduler must keep
	// per-campaign exec counters within 2x of each other at equal budgets.
	const fleet = 8
	reg := queue.NewRegistry(queue.Options{
		LeaseTimeout: 150 * time.Millisecond,
		MaxAttempts:  8,
	})
	gate := make(chan struct{})
	env := core.CampaignEnv{
		Registry: reg,
		Turns:    core.NewTurnScheduler(2),
		Slice:    2,
		Dial:     queue.FlakyDialer(queue.FlakyOptions{Seed: 42, FailProb: 0.03, DelayProb: 0.1, MaxDelay: 3 * time.Millisecond}, nil),
		ExecGate: gate,
		Fault:    func(jobID, attempt int) bool { return attempt == 1 && jobID == 0 },
	}
	s, base := newTestPlane(t, env)

	ids := make([]string, fleet)
	for i := 0; i < fleet; i++ {
		code, body := postJSON(t, base+"/campaigns", testSpec(fmt.Sprintf("chaos-%d", i), int64(100+i)))
		if code != http.StatusCreated {
			t.Fatalf("submit %d: status %d (%s)", i, code, body)
		}
		var sub submitResponse
		if err := json.Unmarshal(body, &sub); err != nil {
			t.Fatal(err)
		}
		ids[i] = sub.ID
	}

	// Open the barrier once every campaign has generated and pushed its
	// jobs, so the fairness sample measures campaigns that started
	// executing together.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		ready := 0
		for _, id := range ids {
			if s.get(id).Status().Expected > 0 {
				ready++
			}
		}
		if ready == fleet {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d campaigns reached the exec gate", ready, fleet)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(gate)

	// Sample all exec counters the moment the first campaign completes.
	var sample []int64
	for sample == nil {
		for _, id := range ids {
			select {
			case <-s.get(id).Done():
				sample = make([]int64, fleet)
				for j, jid := range ids {
					sample[j] = s.get(jid).Executed()
				}
			default:
			}
			if sample != nil {
				break
			}
		}
		if sample == nil {
			time.Sleep(2 * time.Millisecond)
		}
	}

	if err := s.waitAll(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		c := s.get(id)
		r, err := c.Wait()
		if err != nil {
			t.Fatalf("campaign %s: %v", id, err)
		}
		sum := r.Distributed
		if sum == nil {
			t.Fatalf("campaign %s has no distributed summary", id)
		}
		// Lossless: every job reported exactly once (redeliveries folded),
		// none missing, none dead-lettered.
		if sum.Reported != sum.Expected || sum.Lost() || len(sum.DeadJobs) != 0 {
			t.Fatalf("campaign %s lost work under chaos: %+v", id, sum)
		}
	}

	// Fairness: at the first completion every campaign had equal budgets,
	// so no counter may lag the leader by more than 2x.
	var min, max int64 = sample[0], sample[0]
	for _, n := range sample[1:] {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if min*2 < max {
		t.Fatalf("unfair scheduling: exec counters %v (max %d > 2x min %d)", sample, max, min)
	}
}

func TestRestartResumesByteIdentical(t *testing.T) {
	// A control plane killed and restarted on the same -state must resume
	// every submitted campaign and serve byte-identical reports. In-process
	// we model the kill by abandoning the first server (its goroutines
	// finish against its own registry) and booting a second one cold from
	// the persisted manifests; the CI sbd-smoke job does the real SIGKILL
	// mid-run.
	dir := t.TempDir()
	specs := []core.CampaignSpec{testSpec("restart-a", 21), testSpec("restart-b", 22)}

	sA, baseA := newTestPlane(t, core.CampaignEnv{StateDir: dir, Turns: core.NewTurnScheduler(2)})
	ids := make([]string, len(specs))
	for i, spec := range specs {
		code, body := postJSON(t, baseA+"/campaigns", spec)
		if code != http.StatusCreated {
			t.Fatalf("submit %d: status %d", i, code)
		}
		var sub submitResponse
		if err := json.Unmarshal(body, &sub); err != nil {
			t.Fatal(err)
		}
		ids[i] = sub.ID
	}
	if err := sA.waitAll(); err != nil {
		t.Fatal(err)
	}
	reportsA := make([]json.RawMessage, len(ids))
	for i, id := range ids {
		var d detailWire
		if code := getJSON(t, baseA+"/campaigns/"+id, &d); code != http.StatusOK {
			t.Fatalf("detail %s: status %d", id, code)
		}
		if len(d.Report) == 0 {
			t.Fatalf("campaign %s finished without a report", id)
		}
		reportsA[i] = d.Report
	}

	// "Restart": a brand-new server over the same state dir, no HTTP
	// resubmission — it must find both manifests on its own.
	sB, baseB := newTestPlane(t, core.CampaignEnv{StateDir: dir, Turns: core.NewTurnScheduler(2)})
	n, err := sB.resume()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(specs) {
		t.Fatalf("resume found %d campaigns, want %d", n, len(specs))
	}
	if err := sB.waitAll(); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		var d detailWire
		if code := getJSON(t, baseB+"/campaigns/"+id, &d); code != http.StatusOK {
			t.Fatalf("restarted detail %s: status %d", id, code)
		}
		if !bytes.Equal(reportsA[i], d.Report) {
			t.Fatalf("campaign %s report changed across restart:\n%s\nvs\n%s", id, reportsA[i], d.Report)
		}
		// The memoized resume executed nothing.
		if st := sB.get(id).Status(); st.State != core.CampaignDone {
			t.Fatalf("resumed campaign %s state = %s", id, st.State)
		}
	}
	// Resumption is idempotent: resubmitting over HTTP joins, never forks.
	code, body := postJSON(t, baseB+"/campaigns", specs[0])
	if code != http.StatusOK {
		t.Fatalf("resubmit after resume: status %d", code)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(ids, " "), sub.ID) {
		t.Fatalf("resubmission forked campaign %s (known: %v)", sub.ID, ids)
	}
}
