package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"testing"

	"snowboard/internal/detect"
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
		"fuzz":     {"executed", "corpus", "repeats", "resumed", "prefixes", "steps_skipped"},
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
// own fuzz, profile, identify, exec and triage stage.done, whether tenants run
// one after another or side by side. The first obs.StartCampaign used to
// become the process default every later pipeline joined, so a tenant's
// stage events landed in another tenant's stream. A tenant that finds a
// crash-level issue has race.found on its own stream, and no race.found
// lands on any other: the oracles used to emit it on the process default,
// from triage's replays too.
func TestTenantEventsStayWithTenant(t *testing.T) {
	spec := func(seed int64) CampaignSpec {
		o := triageOpts(seed)
		return CampaignSpec{
			Name: fmt.Sprintf("tenant-%d", seed), Method: o.Method.Name, Seed: seed,
			FuzzBudget: o.FuzzBudget, CorpusCap: o.CorpusCap, TestBudget: o.TestBudget,
			Trials: o.Trials, Workers: 2,
		}
	}
	// A campaign's stage 4 is one ExecuteTests batch, run through its queue.
	want := map[string]int{"fuzz": 1, "profile": 1, "identify": 1, "exec": 1, "triage": 1}
	check := func(how string, since uint64, cs ...*Campaign) {
		t.Helper()
		for _, c := range cs {
			if _, err := c.Wait(); err != nil {
				t.Fatalf("%s: %v", how, err)
			}
		}
		found := map[string]int{} // race.found events by trace
		for _, ev := range obs.Events.Since(since) {
			if ev.Kind == obs.EvRaceFound {
				found[ev.Trace]++
			}
		}
		crashes := 0
		for _, c := range cs {
			r := c.Report()
			crashed := slices.ContainsFunc(r.Unknown, func(is detect.Issue) bool { return detect.CrashLevel(is.Kind) })
			for _, rec := range r.Issues {
				crashed = crashed || rec.Repro != nil || detect.CrashLevel(rec.Issue.Kind)
			}
			if crashed != (found[c.Trace] > 0) {
				t.Errorf("%s: %s found a crash-level issue %v, and its stream holds %d race.found", how, c.Spec.Name, crashed, found[c.Trace])
			}
			if crashed {
				crashes++
			}
			delete(found, c.Trace)
		}
		if crashes == 0 {
			t.Errorf("%s: no tenant found a crash-level issue", how)
		}
		if len(found) > 0 {
			t.Errorf("%s: race.found on streams no tenant owns: %v", how, found)
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
	since := obs.Events.Seq()
	a := start(reg, 3)
	a.Wait()
	b := start(reg, 7)
	check("sequential", since, a, b)
	reg.Close()

	reg = queue.NewRegistry(queue.Options{})
	defer reg.Close()
	since = obs.Events.Seq()
	check("concurrent", since, start(reg, 3), start(reg, 7))
}

// TestFeedbackRoundEventsCountSegments: each feedback.round event's
// segments is the round's growth in CoverSegments — what the batch's
// exec stage.done reports cumulatively, less the batch before — so the
// rounds' segments sum to the report's.
func TestFeedbackRoundEventsCountSegments(t *testing.T) {
	var buf bytes.Buffer
	obs.Events.SetSink(&buf)
	opts := triageOpts(3)
	opts.Feedback = true
	r, err := Run(opts)
	obs.Events.SetSink(nil)
	if err != nil {
		t.Fatal(err)
	}
	var cumulative, rounds []int // exec stage.done's segments; each round's
	for dec := json.NewDecoder(&buf); dec.More(); {
		var ev obs.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		n, _ := ev.Attrs["segments"].(float64)
		switch {
		case ev.Trace != obs.CurrentTrace():
		case ev.Kind == obs.EvStageDone && ev.Attrs["stage"] == "exec":
			cumulative = append(cumulative, int(n))
		case ev.Kind == obs.EvFeedbackRound:
			rounds = append(rounds, int(n))
		}
	}
	if len(rounds) != r.FeedbackRounds || len(cumulative) != len(rounds) || len(rounds) < 2 {
		t.Fatalf("%d feedback.round and %d exec stage.done events for %d rounds", len(rounds), len(cumulative), r.FeedbackRounds)
	}
	prev, sum := 0, 0
	for i, n := range rounds {
		if want := cumulative[i] - prev; n != want {
			t.Errorf("round %d: segments %d, want the batch's growth %d", i, n, want)
		}
		prev, sum = cumulative[i], sum+n
	}
	if sum != r.CoverSegments || sum == 0 {
		t.Errorf("rounds' segments sum to %d, report covers %d", sum, r.CoverSegments)
	}
}
