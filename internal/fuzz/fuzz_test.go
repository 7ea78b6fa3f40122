package fuzz

import (
	"testing"

	"snowboard/internal/corpus"
	"snowboard/internal/cover"
	"snowboard/internal/exec"
	"snowboard/internal/kernel"
	"snowboard/internal/trace"
)

// TestGeneratedProgramsAlwaysValid is the generator's core property: every
// generated program passes structural validation and threads resources of
// acceptable kinds.
func TestGeneratedProgramsAlwaysValid(t *testing.T) {
	g := NewGenerator(1)
	for i := 0; i < 2000; i++ {
		p := g.Generate()
		if err := p.Validate(); err != nil {
			t.Fatalf("iteration %d: %v\n%s", i, err, p)
		}
		checkResourceKinds(t, p)
	}
}

// checkResourceKinds verifies that every ResultArg references a call whose
// descriptor kind satisfies the consuming argument's spec.
func checkResourceKinds(t *testing.T, p *corpus.Prog) {
	t.Helper()
	for ci, c := range p.Calls {
		spec := &kernel.Syscalls[c.Nr]
		for ai, a := range c.Args {
			if a.Kind != corpus.ResultArg {
				continue
			}
			as := spec.Args[ai]
			src := p.Calls[a.Ref]
			kind := retKindOf(src.Nr, literalArgs(src))
			if kind == kernel.FDNone {
				t.Fatalf("call %d arg %d references non-resource call %d (%s)",
					ci, ai, a.Ref, kernel.Syscalls[src.Nr].Name)
			}
			if len(as.Res) == 0 {
				continue
			}
			ok := false
			for _, want := range as.Res {
				if kind == want {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("call %d arg %d: resource kind %v not in %v", ci, ai, kind, as.Res)
			}
		}
	}
}

func TestMutationsAlwaysValid(t *testing.T) {
	g := NewGenerator(2)
	p := g.Generate()
	for i := 0; i < 2000; i++ {
		p = g.Mutate(p)
		if err := p.Validate(); err != nil {
			t.Fatalf("mutation %d: %v\n%s", i, err, p)
		}
		checkResourceKinds(t, p)
		if len(p.Calls) == 0 {
			t.Fatal("mutation emptied the program")
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a, b := NewGenerator(7), NewGenerator(7)
	for i := 0; i < 100; i++ {
		if a.Generate().Hash() != b.Generate().Hash() {
			t.Fatalf("iteration %d: same seed diverged", i)
		}
	}
}

// TestCoverageProbe is the fold's contract on a hand-built trace: what a
// trace lacks against the coverage adds exactly once.
func TestCoverageProbe(t *testing.T) {
	i1 := trace.DefIns("fuzz_cov:a")
	i2 := trace.DefIns("fuzz_cov:b")
	var tr trace.Trace
	tr.Record(0, i1, trace.Read, 0, 0, 0, false, false, false, false, 0)
	tr.Record(0, i2, trace.Read, 0, 0, 0, false, false, false, false, 0)
	tr.Record(0, i1, trace.Read, 0, 0, 0, false, false, false, false, 0)

	cov := cover.NewEdges()
	missing := cov.Missing(&tr, nil)
	if len(missing) != 2 { // a->b, b->a
		t.Fatalf("missing edges: %d", len(missing))
	}
	if cov.Len() != 0 {
		t.Fatalf("Missing wrote to the coverage: %d", cov.Len())
	}
	if n := cov.Add(missing); n != 2 {
		t.Fatalf("first add added %d", n)
	}
	if n := cov.Add(missing); n != 0 {
		t.Fatalf("second add added %d", n)
	}
	if again := cov.Missing(&tr, nil); again != nil {
		t.Fatalf("covered trace still misses %v", again)
	}
	if cov.Len() != 2 {
		t.Fatalf("coverage size %d", cov.Len())
	}
}

func TestCampaignDeterministic(t *testing.T) {
	run := func() []string {
		env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
		res := Campaign(env, 42, 150, 0)
		hashes := make([]string, 0, res.Corpus.Len())
		for _, p := range res.Corpus.Progs {
			hashes = append(hashes, p.Hash())
		}
		return hashes
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("corpus sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("corpus diverged at %d", i)
		}
	}
}

func TestCampaignRespectsKeepCap(t *testing.T) {
	env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	res := Campaign(env, 3, 10000, 25)
	if res.Corpus.Len() != 25 {
		t.Fatalf("cap ignored: %d", res.Corpus.Len())
	}
	if res.Executed >= 10000 {
		t.Fatal("campaign did not stop at the cap")
	}
}
