package sched

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"snowboard/internal/cover"
	"snowboard/internal/detect"
	"snowboard/internal/detect/model"
	"snowboard/internal/exec"
	"snowboard/internal/kernel"
	"snowboard/internal/lazyrand"
	"snowboard/internal/pmc"
	"snowboard/internal/trace"
)

// switchInRun reports whether some read is directly followed by another
// thread's access and continued, within 16 rows, by its own thread's next
// access: the only place a conflicting write can fall inside a run. The
// tally splits the traces it is shown by it, and checks that no trace
// without one has a torn read.
func switchInRun(tr *trace.Trace) bool {
	for p := 0; p+1 < tr.Len(); p++ {
		if tr.KindAt(p) != trace.Read || tr.ThreadAt(p+1) == tr.ThreadAt(p) {
			continue
		}
		for k := p + 2; k < tr.Len() && k <= p+16; k++ {
			if tr.ThreadAt(k) == tr.ThreadAt(p) {
				if tr.InsAt(k) == tr.InsAt(p) && tr.KindAt(k) == trace.Read && tr.AddrAt(k) == tr.EndAt(p) {
					return true
				}
				break
			}
		}
	}
	return false
}

// tornTally counts what a differential run compared.
type tornTally struct{ traces, switched, torn int }

// check compares the oracle on tr with the model's torn reads and counts
// which of the oracle's paths tr takes.
func (c *tornTally) check(t *testing.T, tr *trace.Trace, torn []model.Torn) {
	t.Helper()
	var want []detect.TornRead
	for _, r := range torn {
		want = append(want, detect.TornRead(r))
	}
	if got := detect.FindTornReads(tr); !reflect.DeepEqual(got, want) {
		t.Fatalf("FindTornReads %+v, model %+v", got, want)
	}
	c.traces++
	if switchInRun(tr) {
		c.switched++
	} else if want != nil {
		t.Fatalf("torn reads %+v without a switch inside a run", want)
	}
	if want != nil {
		c.torn++
	}
}

func (c *tornTally) log(t *testing.T) {
	t.Helper()
	t.Logf("%d traces: %.1f%% return early, %.1f%% scanned, %.1f%% with a torn read",
		c.traces, 100*float64(c.traces-c.switched)/float64(c.traces),
		100*float64(c.switched)/float64(c.traces), 100*float64(c.torn)/float64(c.traces))
}

// TestTornReadsGeneratorReachesBoth: over model.Gen traces the oracle
// equals the model, and the generator reaches both the early return and
// the scan, the scan with and without a torn read.
func TestTornReadsGeneratorReachesBoth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var c tornTally
	for i := 0; i < 3000; i++ {
		data := make([]byte, 8+rng.Intn(64))
		rng.Read(data)
		tr := model.Gen(data)
		c.check(t, tr, model.TornReads(tr))
	}
	c.log(t)
	if c.switched < c.traces/10 || c.traces-c.switched < c.traces/10 || c.torn < c.traces/20 || c.torn == c.switched {
		t.Fatalf("generator misses a path: %+v", c)
	}
}

func FuzzTornReads(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		data := make([]byte, 16+rng.Intn(128))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			return
		}
		tr := model.Gen(data)
		var c tornTally
		c.check(t, tr, model.TornReads(tr))
	})
}

// TestRealTrialsEqualModel: on every trial trace of explorations of real
// tests, at seeds 3 and 7 on both kernel versions, each output of the
// trial's analysis equals the model's: the happens-before races in report
// order, the torn reads, the alias pairs and segments of the standalone
// coverage walk (fresh to the seed's accumulators, which must end equal),
// whether the hinted channel was exercised, and the incidental lookup over
// the trial's view as the explorer runs it — as many candidates, and the
// same PMC drawn with the same rng. Torn reads are carried by model.Gen
// alone (TestTornReadsGeneratorReachesBoth, and TestTrialAnalysisEqualsModel
// in internal/detect): no real trial
// trace reaches the scan, as the tally logs. The two kernel versions run
// side by side, and each must have trials with races, pairs, segments, an
// exercised channel and an adoption.
func TestRealTrialsEqualModel(t *testing.T) {
	for _, version := range []kernel.Version{kernel.V5_3_10, kernel.V5_12_RC3} {
		t.Run(string(version), func(t *testing.T) {
			t.Parallel()
			realTrialsEqualModel(t, version)
		})
	}
}

func realTrialsEqualModel(t *testing.T, version kernel.Version) {
	var c tornTally
	var races, pairs, segments, exercised, incidental, adoptions int
	for _, seed := range []int64{3, 7} {
		env := exec.NewEnv(kernel.Config{Version: version})
		set, tests := realTests(t, env, seed)
		fsck := func() []string { return env.K.FsckHost() }
		probe := &Explorer{KnownPMCs: set}
		sc := probe.scratchFor()
		acc, accSegs := cover.New(), cover.NewSegments()
		accModel, accSegsModel := make(map[model.Pair]int), make(map[model.Segment]int)
		for i, ct := range tests {
			x := &Explorer{Env: env, Trials: 12, Seed: seed*1000 + int64(i), Mode: ModeSnowboard,
				Detect: detect.DefaultOptions(), KnownPMCs: set, Coverage: cover.New(), Fsck: fsck}
			unfusedExplore(x, ct, func(tr *trace.Trace, current []pmc.PMC) {
				at := func(what string, got, want any) {
					t.Helper()
					t.Fatalf("%s seed %d test %d trial of %d accesses: %s %+v, model %+v", version, seed, i, tr.Len(), what, got, want)
				}
				m := model.Analyze(tr, &model.Steer{Hint: ct.Hint, Known: set, Current: current})
				wantRaces := make([]detect.RaceReport, len(m.Races))
				for k, r := range m.Races {
					wantRaces[k] = detect.RaceReport(r)
				}
				if got := detect.FindRacesHB(tr); !slices.Equal(got, wantRaces) {
					at("races", got, wantRaces)
				}
				c.check(t, tr, m.Torn)
				sc.view.Build(tr)
				sc.walk.Walk(&sc.view)
				gotP, gotS := sc.walk.Fold(acc, accSegs)
				if wantP, wantS := model.AddFresh(accModel, m.Pairs), model.AddFresh(accSegsModel, m.Segments); gotP != wantP || gotS != wantS {
					at("fresh pairs and segments", [2]int{gotP, gotS}, [2]int{wantP, wantS})
				}
				if got := ChannelExercised(tr, ct.Hint); got != m.Exercised {
					at("exercised", got, m.Exercised)
				}
				got, ok := probe.findIncidental(&sc.view, current, lazyrand.New(int64(tr.Len())))
				want, wantOK := model.Adopt(m.Incidental, lazyrand.New(int64(tr.Len())))
				if got != want || ok != wantOK || len(sc.candidates) != len(m.Incidental) {
					at("incidental of candidates", []any{got, ok, len(sc.candidates)}, []any{want, wantOK, len(m.Incidental)})
				}
				races += btoi(len(m.Races) > 0)
				pairs += btoi(len(m.Pairs) > 0)
				segments += btoi(len(m.Segments) > 0)
				exercised += btoi(m.Exercised)
				incidental += btoi(wantOK)
				adoptions += btoi(wantOK && len(current) < maxCurrentPMCs)
			})
		}
		var entries []cover.SegmentCount
		for s, n := range accSegsModel {
			entries = append(entries, cover.SegmentCount{Seg: cover.Segment{First: cover.Comm(s.First), Second: cover.Comm(s.Second)}, N: n})
		}
		if acc.Len() != len(accModel) || !reflect.DeepEqual(accSegs.Export(), cover.ImportSegments(entries).Export()) {
			t.Fatalf("%s seed %d: %d pairs and segments %v, model %d and %v", version, seed, acc.Len(), accSegs.Export(), len(accModel), entries)
		}
		env.Close()
	}
	c.log(t)
	t.Logf("trials with races %d, pairs %d, segments %d, the channel exercised %d, an incidental candidate %d, an adoption %d",
		races, pairs, segments, exercised, incidental, adoptions)
	if races == 0 || pairs == 0 || segments == 0 || exercised == 0 || adoptions == 0 {
		t.Fatal("comparison lost its teeth")
	}
}
