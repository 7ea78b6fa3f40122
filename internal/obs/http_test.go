package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestHandlerEndpoints(t *testing.T) {
	// The handler serves the Default registry; bump a few process-wide
	// metrics so the exposition has something real in it.
	C(MExecTests).Inc()
	G(MFuzzCorpus).Set(3)
	H("stage.exec.duration_ns").Observe(1000)

	srv := httptest.NewServer(Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, want := range []string{"snowboard_exec_tests", "snowboard_fuzz_corpus_size", "snowboard_stage_exec_duration_ns_bucket"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body = get("/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress status = %d", code)
	}
	var p Progress
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("/progress is not JSON: %v (%q)", err, body)
	}
	if p.TestsExecuted < 1 || p.CorpusSize != 3 {
		t.Errorf("/progress = %+v, want tests_executed >= 1 and corpus_size 3", p)
	}

	// /metrics is the one registry view: no expvar copy beside it.
	if code, _ = get("/debug/vars"); code != http.StatusNotFound {
		t.Errorf("/debug/vars status = %d, want 404", code)
	}

	if code, _ = get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d", code)
	}
	if code, _ = get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status = %d", code)
	}
	if code, _ = get("/"); code != http.StatusOK {
		t.Errorf("/ status = %d", code)
	}
	if code, _ = get("/nope"); code != http.StatusNotFound {
		t.Errorf("/nope status = %d, want 404", code)
	}
}

func TestStartHTTPServeErrorSurfaced(t *testing.T) {
	s, err := StartHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Yank the listener out from under the server — the accept loop dies
	// with a real error (not ErrServerClosed), which must be counted
	// rather than silently discarded.
	before := C(MObsServeErrors).Value()
	_ = s.ln.Close()
	deadline := time.Now().Add(2 * time.Second)
	for C(MObsServeErrors).Value() == before {
		if time.Now().After(deadline) {
			t.Fatalf("%s never incremented after the listener died", MObsServeErrors)
		}
		time.Sleep(time.Millisecond)
	}
	_ = s.Close()

	// A graceful Close is not an error: the counter must not move.
	s2, err := StartHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	before = C(MObsServeErrors).Value()
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if got := C(MObsServeErrors).Value(); got != before {
		t.Fatalf("graceful Close bumped %s from %d to %d", MObsServeErrors, before, got)
	}
}

func TestEventsSinceTracePage(t *testing.T) {
	trace := NewTraceID()
	base := Events.Seq()
	for i := 0; i < 3; i++ {
		EmitTrace(trace, EvJobLeased, A("i", i))
		Emit(EvCoverNew, A("i", i)) // someone else's noise
	}
	page := EventsSinceTrace(trace, base)
	if len(page.Events) != 3 {
		t.Fatalf("page holds %d events, want 3", len(page.Events))
	}
	for _, ev := range page.Events {
		if ev.Trace != trace {
			t.Fatalf("foreign event in trace page: %+v", ev)
		}
	}
	if page.Next != page.Events[2].Seq {
		t.Fatalf("Next = %d, want %d", page.Next, page.Events[2].Seq)
	}
	if again := EventsSinceTrace(trace, page.Next); len(again.Events) != 0 || again.Next != page.Next {
		t.Fatalf("cursor page = %d events next=%d, want 0 next=%d",
			len(again.Events), again.Next, page.Next)
	}
}

func TestStartHTTP(t *testing.T) {
	s, err := StartHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + s.Addr() + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var p Progress
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
}

// TestStartCLI: the events file receives the flight recorder's lines until
// stop, and a listen error leaves nothing running, the events sink
// included.
func TestStartCLI(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	stop, err := StartCLI(path, "127.0.0.1:0", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	Events.Emit(EvCampaignDone)
	stop()
	Events.Emit(EvCampaignDone)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != 1 {
		t.Fatalf("events file holds %d lines, want the 1 emitted before stop:\n%s", n, data)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := StartCLI(path, ln.Addr().String(), 0); err == nil {
		t.Fatal("StartCLI on a taken address succeeded")
	}
	Events.Emit(EvCampaignDone)
	if again, _ := os.ReadFile(path); !bytes.Equal(again, data) {
		t.Fatal("a failed StartCLI left the events sink on")
	}
}
