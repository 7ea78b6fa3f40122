package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"snowboard/internal/cluster"
)

// reportDigest flattens everything the determinism contract covers into a
// deep-comparable value: corpus contents, per-test profile shapes, the PMC
// database, the cluster histogram, issue records, and the Report counters.
// Timing fields and the metrics snapshot are deliberately excluded — wall
// clock is the one thing parallelism is allowed to change.
type reportDigest struct {
	// Stage 1.
	Corpus         []string
	FuzzExecutions int
	ProfileSizes   []int
	ProfileHash    []uint64

	// Stage 2.
	PMCCount        int
	Combinations    int64
	Entries         []string
	ClusterHistView []int

	// Stage 4.
	Issues      map[int]string
	Unknown     []string
	Counters    [8]int
	CoverPairs  int
	ExemplarPMC int
}

func fnv1a(h uint64, data string) uint64 {
	if h == 0 {
		h = 14695981039346656037
	}
	for i := 0; i < len(data); i++ {
		h ^= uint64(data[i])
		h *= 1099511628211
	}
	return h
}

func digestRun(t *testing.T, workers int) reportDigest {
	t.Helper()
	opts := DefaultOptions()
	opts.Seed = 7
	opts.FuzzBudget = 220
	opts.CorpusCap = 45
	opts.TestBudget = 14
	opts.Trials = 6
	opts.Workers = workers

	p := NewPipeline(opts)
	r := p.NewReport()
	p.BuildCorpus(r)
	if err := p.ProfileAll(r); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	p.IdentifyPMCs(r)
	tests := p.GenerateTests(r, opts.TestBudget)
	if err := p.ExecuteTests(r, tests); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	p.TriageReport(r)

	d := reportDigest{
		FuzzExecutions: r.FuzzExecutions,
		PMCCount:       r.DistinctPMCs,
		Combinations:   r.PMCCombinations,
		CoverPairs:     r.CoverPairs,
		ExemplarPMC:    r.ExemplarPMCs,
		Issues:         make(map[int]string),
		Counters: [8]int{r.CorpusSize, r.ProfiledAccesses, r.TestedTests, r.TestedPMCs,
			r.Exercised, r.TrialsRun, r.Switches, r.Steps},
	}
	for _, prog := range p.Corpus.Progs {
		d.Corpus = append(d.Corpus, prog.String())
	}
	for _, prof := range p.Profiles {
		d.ProfileSizes = append(d.ProfileSizes, prof.Accesses.Len())
		var h uint64
		for i := 0; i < prof.Accesses.Len(); i++ {
			a := prof.Accesses.At(i)
			h = fnv1a(h, fmt.Sprintf("%d:%d:%d:%d:%d", a.Ins, a.Addr, a.Size, a.Val, a.Kind))
		}
		d.ProfileHash = append(d.ProfileHash, h)
	}
	for key, e := range p.PMCs.Entries {
		d.Entries = append(d.Entries, fmt.Sprintf("%s|%v|%d", key, e.Pairs, e.PairCount))
	}
	sort.Strings(d.Entries)
	cs := cluster.Clusters(p.PMCs, opts.Method.Strategy)
	for i := range cs {
		d.ClusterHistView = append(d.ClusterHistView, len(cs[i].PMCs))
	}
	for id, rec := range r.Issues {
		triage := ""
		if rec.Triage != nil {
			triage = fmt.Sprintf("%s|%s|%+v", rec.Triage.Signature, rec.Triage.Bundle, rec.Triage.Stats)
		}
		d.Issues[id] = fmt.Sprintf("%s|test=%d|trial=%d|count=%d|repro=%v|triage=%s",
			rec.Issue.ID(), rec.TestIndex, rec.Trial, rec.Count, rec.Repro != nil, triage)
	}
	for _, u := range r.Unknown {
		d.Unknown = append(d.Unknown, u.ID())
	}
	return d
}

// TestPipelineParallelDeterminism is the golden determinism test of the
// parallel engine: the full pipeline must produce deep-equal results — PMC
// counts, cluster histogram, issues, per-test profiles — at 1, 2, and 8
// workers with the same seed, and two 8-worker runs must agree with each
// other. Run under -race in CI.
func TestPipelineParallelDeterminism(t *testing.T) {
	d1 := digestRun(t, 1)
	d2 := digestRun(t, 2)
	d8a := digestRun(t, 8)
	d8b := digestRun(t, 8)

	if len(d1.Corpus) == 0 || d1.PMCCount == 0 || len(d1.Issues) == 0 {
		t.Fatalf("degenerate baseline run: corpus=%d pmcs=%d issues=%d",
			len(d1.Corpus), d1.PMCCount, len(d1.Issues))
	}
	for _, cmp := range []struct {
		name string
		got  reportDigest
	}{
		{"workers=2", d2},
		{"workers=8", d8a},
		{"workers=8 (repeat)", d8b},
	} {
		if !reflect.DeepEqual(d1, cmp.got) {
			t.Errorf("%s diverged from workers=1", cmp.name)
			diffDigest(t, d1, cmp.got)
		}
	}
}

// diffDigest narrows a digest mismatch down to the first diverging field.
func diffDigest(t *testing.T, a, b reportDigest) {
	t.Helper()
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			t.Logf("field %s differs:\n  a: %v\n  b: %v",
				va.Type().Field(i).Name, va.Field(i).Interface(), vb.Field(i).Interface())
		}
	}
}
