package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"snowboard/internal/obs"
)

func TestMain(m *testing.M) {
	obs.Diag.SetOutput(io.Discard) // as main does without -v
	os.Exit(m.Run())
}

// benchmarkJSON mirrors the keys of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return doc
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkJSONMatches(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	if len(doc.Workloads) < 2 || len(doc.Workloads) > 8 || len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	seen := make(map[string]bool)
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range doc.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	same := func(kind string, got, want []metricDef) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			unique(got[i].Name)
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end-to-end", doc.EndToEnd, endToEnd)
	same("per-layer", doc.PerLayer, perLayer)
	hasSetup := false
	for _, m := range doc.EndToEnd {
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside [0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}

// TestSmoke runs all four workloads end to end at smoke scale, untraced and
// traced, and checks that each prints exactly the metrics BENCHMARK.json
// names, with their units, ending in one parseable result.
func TestSmoke(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	out := t.TempDir()
	for _, w := range doc.Workloads {
		for trace, defs := range [][]metricDef{doc.EndToEnd, doc.PerLayer} {
			var stdout bytes.Buffer
			cfg := config{workload: w.Name, seed: 3, seconds: 0, trace: trace, smoke: true, out: out}
			if err := runOne(cfg, &stdout); err != nil {
				t.Fatalf("%s trace %d: %v", w.Name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace %d: last line is not a result: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace %d: correct %v, %d attempted, %d failed", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics printed, %d named", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, m := range defs {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s printed as %+v (present %v), want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
				if trace == 0 && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w.Name, m.Name, got.Value)
				}
				if !strings.Contains(stdout.String(), m.Name+" ") {
					t.Errorf("%s trace %d: %s is missing from the printed table", w.Name, trace, m.Name)
				}
			}
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rep); err != nil {
				t.Fatalf("%s trace %d: report line: %v", w.Name, trace, err)
			}
			h := rep.Header
			if h.NProc < 1 || h.GOMAXPROCS < 1 || h.Go == "" || h.Commit == "" || len(h.Command) == 0 || h.Scale != "smoke" {
				t.Errorf("%s trace %d: incomplete header %+v", w.Name, trace, h)
			}
			if trace == 0 && (rep.Units < 2 || len(rep.Prefix) != 1 || rep.Prefix[0].Digest == "") {
				t.Errorf("%s: %d units, prefix %+v", w.Name, rep.Units, rep.Prefix)
			}
			if trace == 1 {
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".jsonl")); err != nil {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(out, "tmp-*")); len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stdout bytes.Buffer
	if err := runOne(config{workload: "nope", out: t.TempDir()}, &stdout); err == nil {
		t.Fatal("an unknown workload ran")
	}
}
