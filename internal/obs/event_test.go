package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
)

func TestEventLogConcurrentWriters(t *testing.T) {
	l := NewEventLog(1024)
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if seq := l.EmitTrace("t", EvPMCTested, A("writer", w), A("i", i)); seq == 0 {
					t.Errorf("writer %d: Emit returned seq 0", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := l.Seq(); got != writers*perWriter {
		t.Fatalf("Seq() = %d, want %d", got, writers*perWriter)
	}
	evs := l.Since(0)
	if len(evs) != 1024 {
		t.Fatalf("Since(0) returned %d events, want the full ring (1024)", len(evs))
	}
	seen := make(map[uint64]bool, len(evs))
	for i, ev := range evs {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
		if i > 0 && evs[i-1].Seq >= ev.Seq {
			t.Fatalf("Since not ascending: %d then %d", evs[i-1].Seq, ev.Seq)
		}
	}
}

func TestEventLogSincePagination(t *testing.T) {
	l := NewEventLog(64)
	for i := 0; i < 10; i++ {
		l.EmitTrace("", EvCoverNew, A("i", i))
	}
	page1 := l.Since(0)
	if len(page1) != 10 || page1[0].Seq != 1 || page1[9].Seq != 10 {
		t.Fatalf("Since(0) = %d events [%d..%d], want 10 [1..10]",
			len(page1), page1[0].Seq, page1[len(page1)-1].Seq)
	}
	page2 := l.Since(page1[4].Seq)
	if len(page2) != 5 || page2[0].Seq != 6 {
		t.Fatalf("Since(5) = %d events starting %d, want 5 starting 6", len(page2), page2[0].Seq)
	}
	if got := l.Since(10); len(got) != 0 {
		t.Fatalf("Since(last) = %d events, want 0", len(got))
	}
}

func TestEventLogOverwritesOldest(t *testing.T) {
	l := NewEventLog(8)
	for i := 0; i < 20; i++ {
		l.Emit(EvPMCTested, A("i", i))
	}
	evs := l.Since(0)
	if len(evs) != 8 {
		t.Fatalf("ring of 8 retains %d events", len(evs))
	}
	if evs[0].Seq != 13 || evs[7].Seq != 20 {
		t.Fatalf("retained [%d..%d], want [13..20]", evs[0].Seq, evs[7].Seq)
	}
}

func TestEventSinkJSONLOrdering(t *testing.T) {
	l := NewEventLog(256)
	var buf bytes.Buffer
	l.SetSink(&buf)
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.EmitTrace("trace-x", EvJobLeased, A("writer", w))
			}
		}(w)
	}
	wg.Wait()
	l.SetSink(nil)

	// The sink must hold every event exactly once, in strict sequence order
	// — the lock-free fast path is bypassed while a sink is attached.
	sc := bufio.NewScanner(&buf)
	var prev uint64
	lines := 0
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
		if ev.Seq != prev+1 {
			t.Fatalf("line %d: seq %d follows %d, want strict +1 ordering", lines, ev.Seq, prev)
		}
		if ev.Trace != "trace-x" || ev.Kind != EvJobLeased {
			t.Fatalf("line %d: unexpected event %+v", lines, ev)
		}
		prev = ev.Seq
		lines++
	}
	if lines != writers*perWriter {
		t.Fatalf("sink holds %d lines, want %d", lines, writers*perWriter)
	}

	// After detaching, emission reverts to the lock-free path and the sink
	// stays untouched.
	l.Emit(EvCampaignDone)
	if buf.Len() != 0 {
		t.Fatalf("detached sink received %d bytes", buf.Len())
	}
}

func TestEventsEndpointPagination(t *testing.T) {
	// The /events endpoint serves the process-wide recorder; emit through it.
	base := Events.Seq()
	for i := 0; i < 5; i++ {
		Emit(EvStageDone, A("stage", "test"), A("i", i))
	}
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	get := func(path string) EventsPage {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var page EventsPage
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", path, err)
		}
		return page
	}

	page := get(fmt.Sprintf("/events?since=%d", base))
	if len(page.Events) != 5 {
		t.Fatalf("/events?since=%d returned %d events, want 5", base, len(page.Events))
	}
	for i, ev := range page.Events {
		if i > 0 && page.Events[i-1].Seq >= ev.Seq {
			t.Fatalf("events not strictly ascending at %d", i)
		}
	}
	if page.Next != page.Events[4].Seq {
		t.Fatalf("Next = %d, want last seq %d", page.Next, page.Events[4].Seq)
	}

	// Paging from the cursor returns nothing new.
	empty := get(fmt.Sprintf("/events?since=%d", page.Next))
	if len(empty.Events) != 0 || empty.Next != page.Next {
		t.Fatalf("cursor page = %d events next=%d, want 0 events next=%d",
			len(empty.Events), empty.Next, page.Next)
	}

	// Bad cursors are rejected, not treated as zero.
	resp, err := http.Get(srv.URL + "/events?since=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/events?since=banana status = %d, want 400", resp.StatusCode)
	}
}

func TestEnsureCampaignSingleton(t *testing.T) {
	c1 := EnsureCampaign("test-campaign")
	if c1.Trace == "" {
		t.Fatal("campaign has no trace ID")
	}
	c2 := EnsureCampaign("other-name")
	if c2.Trace != c1.Trace {
		t.Fatalf("second EnsureCampaign returned a new trace %s != %s", c2.Trace, c1.Trace)
	}
	if CurrentTrace() != c1.Trace {
		t.Fatalf("CurrentTrace() = %q, want %q", CurrentTrace(), c1.Trace)
	}
	// Events emitted without an explicit trace inherit the campaign's.
	l := NewEventLog(8)
	l.Emit(EvCampaignDone)
	evs := l.Since(0)
	if len(evs) != 1 || evs[0].Trace != c1.Trace {
		t.Fatalf("inherited trace = %q, want %q", evs[0].Trace, c1.Trace)
	}
}

func TestStartCampaignMultiTenant(t *testing.T) {
	// Unlike EnsureCampaign, StartCampaign never joins an existing
	// campaign: a control plane hosting many tenants gets a fresh trace
	// per call, and every campaign lands in the process registry.
	before := len(Campaigns())
	a := StartCampaign("tenant-a")
	b := StartCampaign("tenant-b")
	if a.Trace == "" || b.Trace == "" {
		t.Fatal("campaign without a trace ID")
	}
	if a.Trace == b.Trace {
		t.Fatalf("StartCampaign reused trace %s", a.Trace)
	}
	all := Campaigns()
	if len(all) != before+2 {
		t.Fatalf("registry grew by %d campaigns, want 2", len(all)-before)
	}
	if all[len(all)-2].Trace != a.Trace || all[len(all)-1].Trace != b.Trace {
		t.Fatal("registry is not in start order")
	}
	got, ok := CampaignByTrace(b.Trace)
	if !ok || got.Name != "tenant-b" {
		t.Fatalf("CampaignByTrace(%s) = %+v, %v", b.Trace, got, ok)
	}
	if _, ok := CampaignByTrace("no-such-trace"); ok {
		t.Fatal("CampaignByTrace invented a campaign")
	}
}

func TestSinceTraceScopesPerCampaign(t *testing.T) {
	l := NewEventLog(64)
	for i := 0; i < 4; i++ {
		l.EmitTrace("trace-a", EvJobAcked, A("i", i))
		l.EmitTrace("trace-b", EvJobNacked, A("i", i))
	}
	a := l.SinceTrace("trace-a", 0)
	if len(a) != 4 {
		t.Fatalf("SinceTrace(trace-a) = %d events, want 4", len(a))
	}
	for i, ev := range a {
		if ev.Trace != "trace-a" || ev.Kind != EvJobAcked {
			t.Fatalf("event %d leaked from another campaign: %+v", i, ev)
		}
		if i > 0 && a[i-1].Seq >= ev.Seq {
			t.Fatalf("SinceTrace not strictly ascending at %d", i)
		}
	}
	// The cursor is the process-wide sequence number, so paging past the
	// last trace-a event yields nothing even though trace-b kept emitting.
	if got := l.SinceTrace("trace-a", a[3].Seq); len(got) != 0 {
		t.Fatalf("cursor page returned %d events, want 0", len(got))
	}
	if got := l.SinceTrace("trace-c", 0); len(got) != 0 {
		t.Fatalf("unknown trace returned %d events", len(got))
	}
}

func TestNewTraceIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace ID %q has length %d, want 16", id, len(id))
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}

// TestSinceShuffleInvariant pins Since ordering: sequence numbers are
// unique by construction, so repeated calls must return the identical
// strictly-increasing event list even after concurrent emission.
func TestSinceShuffleInvariant(t *testing.T) {
	l := NewEventLog(1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.Emit("shuffle.test", A("g", g), A("i", i))
			}
		}(g)
	}
	wg.Wait()
	base := l.Since(0)
	if len(base) != 400 {
		t.Fatalf("events: %d", len(base))
	}
	for i := 1; i < len(base); i++ {
		if base[i].Seq <= base[i-1].Seq {
			t.Fatalf("seq not strictly increasing at %d: %d then %d", i, base[i-1].Seq, base[i].Seq)
		}
	}
	for run := 0; run < 50; run++ {
		if got := l.Since(0); !reflect.DeepEqual(got, base) {
			t.Fatalf("run %d: Since order diverged", run)
		}
	}
}
