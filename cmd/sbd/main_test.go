package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"snowboard"
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
// listener, fair scheduler, HTTP server — returning the server handle, its
// HTTP base URL and the queue listener's address, with teardown registered
// on t.
func newTestPlane(t *testing.T, env core.CampaignEnv) (s *server, base, queueAddr string) {
	t.Helper()
	if env.Registry == nil {
		env.Registry = queue.NewRegistry(queue.Options{})
	}
	t.Cleanup(env.Registry.Close)
	qsrv, err := queue.ServeRegistry(env.Registry, "127.0.0.1:0", queue.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(qsrv.Close)
	s = newServer(env)
	hs := httptest.NewServer(s.handler())
	t.Cleanup(hs.Close)
	return s, hs.URL, qsrv.Addr()
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
	dir := t.TempDir()
	s, base, _ := newTestPlane(t, core.CampaignEnv{StateDir: dir, Turns: core.NewTurnScheduler(2)})

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
	// A budget past its ceiling would keep an executor exploring, and a
	// restarted server resuming it, without bound.
	unbounded := testSpec("unbounded", 11)
	unbounded.Trials = core.MaxTrials + 1
	if code, body := postJSON(t, base+"/campaigns", unbounded); code != http.StatusBadRequest ||
		!strings.Contains(string(body), "ceilings") {
		t.Fatalf("spec past a ceiling: status %d body %q, want 400 naming the ceilings", code, body)
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
	if specs, err := core.LoadCampaignSpecs(dir); err != nil || len(specs) != 1 {
		t.Fatalf("refused specs left %d manifests (%v), want 1", len(specs), err)
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

// submitFleet POSTs one chaos spec per campaign and returns their IDs.
func submitFleet(t *testing.T, base string, fleet int) []string {
	t.Helper()
	ids := make([]string, fleet)
	for i := range ids {
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
	return ids
}

// foldedReport is a finished campaign's report without what delivery and
// wall clock decide: stage durations and the count of redelivered
// duplicates the fold dropped.
func foldedReport(t *testing.T, c *core.Campaign) []byte {
	t.Helper()
	r, err := c.Wait()
	if err != nil {
		t.Fatalf("campaign %s: %v", c.ID, err)
	}
	n := *r
	n.FuzzTime, n.ProfileTime, n.IdentifyTime, n.ClusterTime, n.ExecTime = 0, 0, 0, 0, 0
	if r.Distributed != nil {
		d := *r.Distributed
		d.Duplicates = 0
		n.Distributed = &d
	}
	b, err := json.Marshal(&n)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// joinCampaign is an sbexec-like worker joined to one campaign's queue over
// the plane's TCP listener: every byte it sends or receives goes through
// seeded FlakyConns (severs and delays), and it leases one job per turn next
// to the campaign's in-process executor until the campaign closes its
// queue. It closes first after its first turn and returns how many jobs it
// settled.
func joinCampaign(c *core.Campaign, addr string, seed int64, first chan<- struct{}) (int, error) {
	name := c.QueueName()
	env := snowboard.NewEnv(snowboard.Version(c.Spec.Version))
	defer env.Close()
	cl, err := queue.DialOpts(addr, queue.DialOptions{
		Queue:      name,
		MaxRetries: 8,
		BaseDelay:  time.Millisecond,
		MaxDelay:   20 * time.Millisecond,
		Seed:       seed,
		Dial:       queue.FlakyDialer(queue.FlakyOptions{Seed: seed, FailProb: 0.03, DelayProb: 0.1, MaxDelay: 3 * time.Millisecond}, nil),
	})
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	w := core.NewWorker(env, "joined/"+name, nil)
	settled := 0
	for deadline := time.Now().Add(2 * time.Minute); time.Now().Before(deadline); {
		leases, err := cl.LeaseN(1)
		switch {
		case errors.Is(err, queue.ErrClosed):
			return settled, nil
		case err != nil:
			// Empty while the executor holds the last leases, or a sever
			// that outlasted the client's retries: poll again.
			time.Sleep(2 * time.Millisecond)
			continue
		}
		n, _ := w.Do(cl, leases)
		if settled += n; first != nil {
			close(first)
			first = nil
		}
	}
	return settled, fmt.Errorf("queue %s never closed", name)
}

func TestChaosFleetFairAndLossless(t *testing.T) {
	// The acceptance gauntlet, in the production mix: 8 concurrent
	// campaigns through one control plane, each executor leasing its queue
	// in-process with injected crashes (abandoned leases), while sbexec-like
	// workers join two of the campaigns over the TCP listener through
	// seeded FlakyConns. Nothing may be lost or double-counted, every
	// report must equal a fault-free run's, and the fair scheduler must
	// keep the other campaigns' exec counters within 2x of each other at
	// equal budgets.
	const fleet, joined = 8, 2
	reg := queue.NewRegistry(queue.Options{
		LeaseTimeout: 150 * time.Millisecond,
		MaxAttempts:  8,
	})
	gate := make(chan struct{})
	env := core.CampaignEnv{
		Registry: reg,
		Turns:    core.NewTurnScheduler(2),
		Slice:    2,
		ExecGate: gate,
		Fault:    func(jobID, attempt int) bool { return attempt == 1 && jobID == 0 },
	}
	s, base, qaddr := newTestPlane(t, env)
	ids := submitFleet(t, base, fleet)

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
	// Each joined worker takes its first turn before the executors start,
	// so the mix is there whatever the scheduling.
	settled := make([]int, joined)
	errs := make([]error, joined)
	var wg sync.WaitGroup
	for i := range settled {
		first := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			settled[i], errs[i] = joinCampaign(s.get(ids[i]), qaddr, int64(42+i), first)
		}()
		select {
		case <-first:
		case <-time.After(time.Minute):
			t.Fatalf("joined worker %d never took a turn", i)
		}
	}
	close(gate)

	// Sample the other campaigns' exec counters the moment the first of
	// them completes.
	rest := ids[joined:]
	var sample []int64
	for sample == nil {
		for _, id := range rest {
			if st := s.get(id).Status().State; st == core.CampaignDone || st == core.CampaignFailed {
				sample = make([]int64, len(rest))
				for j, jid := range rest {
					sample[j] = s.get(jid).Status().Executed
				}
				break
			}
		}
		if sample == nil {
			time.Sleep(2 * time.Millisecond)
		}
	}

	for _, id := range ids {
		if _, err := s.get(id).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil || settled[i] == 0 {
			t.Fatalf("joined worker %d settled %d jobs: %v", i, settled[i], err)
		}
	}
	reports := make([][]byte, fleet)
	for i, id := range ids {
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
		reports[i] = foldedReport(t, c)
	}

	// The same specs through a plane with no crash, no flaky transport and
	// no joined worker fold to the same reports.
	calm, calmBase, _ := newTestPlane(t, core.CampaignEnv{Turns: core.NewTurnScheduler(2), Slice: 2})
	calmIDs := submitFleet(t, calmBase, fleet)
	for i, id := range calmIDs {
		if want := foldedReport(t, calm.get(id)); !bytes.Equal(reports[i], want) {
			t.Fatalf("campaign %s under chaos folded a different report:\n%s\nvs fault-free\n%s", id, reports[i], want)
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

	sA, baseA, _ := newTestPlane(t, core.CampaignEnv{StateDir: dir, Turns: core.NewTurnScheduler(2)})
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
	for _, id := range ids {
		if _, err := sA.get(id).Wait(); err != nil {
			t.Fatal(err)
		}
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
	sB, baseB, _ := newTestPlane(t, core.CampaignEnv{StateDir: dir, Turns: core.NewTurnScheduler(2)})
	n, err := sB.resume()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(specs) {
		t.Fatalf("resume found %d campaigns, want %d", n, len(specs))
	}
	for _, id := range ids {
		if _, err := sB.get(id).Wait(); err != nil {
			t.Fatal(err)
		}
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
