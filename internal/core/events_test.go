package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"testing"

	"snowboard/internal/obs"
	"snowboard/internal/queue"
)

// TestRunEventsCarryStageOutcomes: the -events stream carries what the
// retired span lines did. Every stage that emits a stage.done puts its
// outcome on it, and every explored test's pmc.tested carries its
// duration, all stitched to the pipeline's campaign.
func TestRunEventsCarryStageOutcomes(t *testing.T) {
	var buf bytes.Buffer
	obs.Events.SetSink(&buf)
	_, err := Run(triageOpts(3))
	obs.Events.SetSink(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"fuzz":     {"executed", "corpus", "repeats"},
		"profile":  {"accesses"},
		"identify": {"pmcs"},
		"exec":     {"issues", "segments"},
		"triage":   {"minimized"},
	}
	seen := map[string]bool{}
	tested := 0
	for dec := json.NewDecoder(&buf); dec.More(); {
		var ev obs.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.Trace != obs.CurrentTrace() {
			continue
		}
		switch ev.Kind {
		case obs.EvStageDone:
			stage, _ := ev.Attrs["stage"].(string)
			for _, k := range want[stage] {
				if _, ok := ev.Attrs[k]; !ok {
					t.Errorf("stage.done for %s lacks %q: %v", stage, k, ev.Attrs)
				}
			}
			seen[stage] = true
		case obs.EvPMCTested:
			if d, _ := ev.Attrs["dur_ns"].(float64); d <= 0 {
				t.Fatalf("pmc.tested without a positive dur_ns: %v", ev.Attrs)
			}
			tested++
		}
	}
	for stage := range want {
		if !seen[stage] {
			t.Errorf("no stage.done for %s in the events sink", stage)
		}
	}
	if tested == 0 {
		t.Error("no pmc.tested in the events sink")
	}
}

// TestTenantEventsStayWithTenant: each campaign's stream holds exactly its
// own fuzz, profile, identify and triage stage.done, whether tenants run
// one after another or side by side. The first obs.StartCampaign used to
// become the process default every later pipeline joined, so a tenant's
// stage events landed in another tenant's stream.
func TestTenantEventsStayWithTenant(t *testing.T) {
	spec := func(seed int64) CampaignSpec {
		o := triageOpts(seed)
		return CampaignSpec{
			Name: fmt.Sprintf("tenant-%d", seed), Method: o.Method.Name, Seed: seed,
			FuzzBudget: o.FuzzBudget, CorpusCap: o.CorpusCap, TestBudget: o.TestBudget,
			Trials: o.Trials, Workers: 2,
		}
	}
	// sbd's queue path emits no exec stage.done; its stage 4 is the
	// campaign's queue.
	want := map[string]int{"fuzz": 1, "profile": 1, "identify": 1, "triage": 1}
	check := func(how string, cs ...*Campaign) {
		t.Helper()
		for _, c := range cs {
			if _, err := c.Wait(); err != nil {
				t.Fatalf("%s: %v", how, err)
			}
		}
		for _, c := range cs {
			got := map[string]int{}
			for _, ev := range obs.Events.SinceTrace(c.Trace, 0) {
				if ev.Kind == obs.EvStageDone {
					got[fmt.Sprint(ev.Attrs["stage"])]++
				}
			}
			if !maps.Equal(got, want) {
				t.Errorf("%s: %s stream holds stage.done %v, want %v", how, c.Spec.Name, got, want)
			}
		}
	}
	start := func(reg *queue.Registry, seed int64) *Campaign {
		c, err := StartCampaign(spec(seed), CampaignEnv{Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	reg := queue.NewRegistry(queue.Options{})
	a := start(reg, 3)
	a.Wait()
	b := start(reg, 7)
	check("sequential", a, b)
	reg.Close()

	reg = queue.NewRegistry(queue.Options{})
	defer reg.Close()
	check("concurrent", start(reg, 3), start(reg, 7))
}
