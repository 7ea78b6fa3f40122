package snowboard_test

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"snowboard"
	"snowboard/internal/cluster"
	"snowboard/internal/core"
	"snowboard/internal/detect"
	"snowboard/internal/kernel"
	"snowboard/internal/obs"
	"snowboard/internal/par"
	"snowboard/internal/pmc"
	"snowboard/internal/sched"
	"snowboard/internal/trace"
	"snowboard/internal/triage"
)

// TestDocTables holds every table EXPERIMENTS.md prints that is a pure
// function of a command. Each sits between a "<!-- doctable:NAME -->" line
// and a "<!-- /doctable -->" line, and subtest NAME runs the experiment
// behind it at the seeds the table names and renders it. A byte difference
// fails the subtest, which prints the block it rendered. The tables hold
// no timings.
func TestDocTables(t *testing.T) {
	src, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := docTableBlocks(string(src))
	if err != nil {
		t.Fatal(err)
	}
	for name := range blocks {
		if !slices.ContainsFunc(docTables, func(d docTable) bool { return d.name == name }) {
			t.Errorf("EXPERIMENTS.md has a doctable:%s block that no subtest renders", name)
		}
	}
	for _, d := range docTables {
		t.Run(d.name, func(t *testing.T) {
			got := d.render(t)
			if want, ok := blocks[d.name]; !ok {
				t.Errorf("EXPERIMENTS.md has no doctable:%s block; rendered:\n%s", d.name, fence(d.name, got))
			} else if got != want {
				t.Errorf("EXPERIMENTS.md doctable:%s differs from what its experiments render; rendered:\n%s", d.name, fence(d.name, got))
			}
		})
	}
}

// A docTable renders one EXPERIMENTS.md table.
type docTable struct {
	name   string
	render func(t *testing.T) string
}

// docRuns is the number of seeds behind every mean a table prints.
const docRuns = 5

var docTables = []docTable{
	{"figure1", renderFigure1},
	{"figure3", renderFigure3},
	{"figure4", renderFigure4},
	{"table2", renderTable2},
	{"table3", renderTable3},
	{"precision", renderPrecision},
	{"switches", renderSwitches},
	{"triage", renderTriage},
	{"ablations", renderAblations},
	{"feedback", renderFeedback},
}

// trialsToIssue explores the concurrent test and returns the 1-based trial
// on which the target issue (by Table 2 id and kind) surfaced, or cap+1.
func trialsToIssue(env *snowboard.Env, set *snowboard.PMCSet, ct snowboard.ConcurrentTest,
	mode sched.Mode, seed int64, cap int, bugID int, kind detect.IssueKind) (int, *snowboard.ExploreOutcome) {
	x := &snowboard.Explorer{
		Env: env, Trials: cap, Seed: seed, Mode: mode,
		Detect: detect.DefaultOptions(), KnownPMCs: set,
		Fsck: func() []string { return env.K.FsckHost() },
	}
	out := x.Explore(ct)
	for _, is := range out.Issues {
		if is.BugID == bugID && is.Kind == kind {
			return out.TrialOf(is) + 1, &out
		}
	}
	return cap + 1, &out
}

// renderFigure1 is the trials each scheduler needs to crash the kernel
// through the Figure 1 order violation, at most 4,096 per run, each run in
// a fresh kernel (§5.4's interleavings-to-expose comparison).
func renderFigure1(t *testing.T) string {
	modes := []sched.Mode{snowboard.ModeSnowboard, snowboard.ModeSKI, snowboard.ModeRandomWalk}
	var rows [][]string
	totals := make([]int, len(modes))
	for i := range docRuns {
		seed := int64(i)*7919 + 1
		row := []string{itoa(seed)}
		for j, m := range modes {
			env, set, ct := l2tpTest(t)
			n, _ := trialsToIssue(env, set, ct, m, seed, 4096, 12, detect.KindPanic)
			env.Close()
			totals[j] += n
			row = append(row, itoa(n))
		}
		rows = append(rows, row)
	}
	mean := []string{"mean"}
	for _, n := range totals {
		mean = append(mean, f1(n, docRuns))
	}
	return mdTable([]string{"Seed", "Snowboard", "SKI", "Random walk"}, append(rows, mean)...)
}

// renderFigure3 is the trials to detect the
// eth_commit_mac_addr_change/dev_ifsioc_locked race, at most 256 per run,
// and whether a torn (corrupted) MAC was directly witnessed.
func renderFigure3(t *testing.T) string {
	writer := P(
		sock(kernel.AFInet, kernel.SockDgram, 0),
		CR(kernel.SysIoctlNr, snowboard.ResultArg(0), snowboard.Const(kernel.SIOCSIFHWADDR), snowboard.Const(0x2)),
	)
	reader := P(
		sock(kernel.AFInet, kernel.SockDgram, 0),
		CR(kernel.SysIoctlNr, snowboard.ResultArg(0), snowboard.Const(kernel.SIOCGIFHWADDR), snowboard.Const(0)),
	)
	var rows [][]string
	total, torn := 0, 0
	for i := range docRuns {
		seed := int64(i)*13 + 1
		env := snowboard.NewEnv(snowboard.V5_3_10)
		set, hint := identifyPair(t, env, writer, reader, "eth_commit_mac_addr_change", "dev_ifsioc_locked:memcpy")
		n, out := trialsToIssue(env, set, snowboard.ConcurrentTest{Writer: writer, Reader: reader, Hint: hint},
			snowboard.ModeSnowboard, seed, 256, 9, detect.KindDataRace)
		env.Close()
		tr := slices.ContainsFunc(out.Issues, func(is detect.Issue) bool {
			return is.BugID == 9 && strings.HasPrefix(is.Desc, "Torn")
		})
		total += n
		if tr {
			torn++
		}
		rows = append(rows, []string{itoa(seed), itoa(n), strconv.FormatBool(tr)})
	}
	rows = append(rows, []string{"mean", f1(total, docRuns), fmt.Sprintf("%d of %d", torn, docRuns)})
	return mdTable([]string{"Seed", "Trials to the race", "Torn MAC witnessed"}, rows...)
}

// renderFigure4 is the trials to crash the kernel through the
// one-instruction double-fetch window in rht_ptr (5.3.10 build), at most
// 1,024 per run.
func renderFigure4(t *testing.T) string {
	var rows [][]string
	total := 0
	for i := range docRuns {
		seed := int64(i)*31 + 1
		env := snowboard.NewEnv(snowboard.V5_3_10)
		writer, reader := msgWriterProg(), msgReaderProg()
		set, hint := identifyPair(t, env, writer, reader, "rht_assign_unlock", "rht_ptr")
		n, _ := trialsToIssue(env, set, snowboard.ConcurrentTest{Writer: writer, Reader: reader, Hint: hint},
			snowboard.ModeSnowboard, seed, 1024, 1, detect.KindPanic)
		env.Close()
		total += n
		rows = append(rows, []string{itoa(seed), itoa(n)})
	}
	rows = append(rows, []string{"mean", f1(total, docRuns)})
	return mdTable([]string{"Seed", "Trials to the panic"}, rows...)
}

// renderTable2 runs the whole pipeline, fuzzing included, on both versions
// (fuzz 600, corpus 150, 80 tests × 16 trials).
func renderTable2(t *testing.T) string {
	var rows [][]string
	for _, v := range []snowboard.Version{snowboard.V5_3_10, snowboard.V5_12_RC3} {
		total := 0
		for i := range docRuns {
			opts := snowboard.DefaultOptions()
			opts.Version = v
			opts.Seed = int64(i) + 3
			opts.FuzzBudget, opts.CorpusCap, opts.TestBudget, opts.Trials = 600, 150, 80, 16
			r, err := snowboard.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			ids := r.BugIDs()
			total += len(ids)
			rows = append(rows, []string{string(v), itoa(opts.Seed), itoa(len(ids)), fmt.Sprint(ids)})
		}
		rows = append(rows, []string{string(v), "mean", f1(total, docRuns), ""})
	}
	return mdTable([]string{"Version", "Seed", "Distinct Table 2 issues", "Ids"}, rows...)
}

// stage4Opts is the shared analysis's options with stage 4's seed and
// budget.
func stage4Opts(shared *snowboard.Pipeline, seed int64, tests, trials int) snowboard.Options {
	opts := shared.Opts
	opts.Seed, opts.TestBudget, opts.Trials = seed, tests, trials
	return opts
}

// pipelineOver is a pipeline for opts over the shared analysis's corpus,
// profiles and PMCs.
func pipelineOver(shared *snowboard.Pipeline, opts snowboard.Options) *snowboard.Pipeline {
	p := snowboard.NewPipeline(opts)
	p.SetCorpus(shared.Corpus)
	p.SetProfiles(shared.Profiles)
	p.SetPMCs(shared.PMCs)
	return p
}

// stage4 runs generation and execution with opts on the shared analysis
// and returns the report.
func stage4(shared *snowboard.Pipeline, opts snowboard.Options) *snowboard.Report {
	p := pipelineOver(shared, opts)
	r := p.NewReport()
	p.ExecuteTests(r, p.GenerateTests(r, opts.TestBudget))
	p.Close()
	return r
}

// renderTable3 runs every generation method on the shared analysis with
// the same budget (60 tests × 12 trials).
func renderTable3(t *testing.T) string {
	shared := sharedAnalysis(t)
	var rows [][]string
	for _, m := range snowboard.Methods() {
		exemplars, exercised, issues, pairs, slab := "", 0, 0, 0, 0
		union := make(map[int]bool)
		for i := range docRuns {
			opts := stage4Opts(shared, int64(i)+17, 60, 12)
			opts.Method = m
			r := stage4(shared, opts)
			exemplars = itoa(r.ExemplarPMCs)
			exercised += r.Exercised
			issues += len(r.BugIDs())
			pairs += r.CoverPairs
			if _, ok := r.Issues[13]; ok {
				slab++
			}
			for _, id := range r.BugIDs() {
				union[id] = true
			}
		}
		if m.Kind != core.MethodPMC { // the pairing baselines cluster nothing
			exemplars = "—"
		}
		rows = append(rows, []string{m.Name, exemplars, f1(exercised, docRuns), f1(issues, docRuns), f1(pairs, docRuns),
			fmt.Sprintf("%d of %d", slab, docRuns), fmt.Sprint(slices.Sorted(maps.Keys(union)))})
	}
	return mdTable([]string{"Method", "Exemplar clusters", "Exercised/run", "Issues/run", "Cover-pairs/run", "#13 found", "Ids over the runs"}, rows...)
}

// renderPrecision is the share of PMC-hinted tests whose predicted channel
// occurred in at least one trial, under S-INS-PAIR on the shared analysis
// (80 tests × 12 trials).
func renderPrecision(t *testing.T) string {
	shared := sharedAnalysis(t)
	var rows [][]string
	tested, exercised := 0, 0
	for i := range docRuns {
		opts := stage4Opts(shared, int64(i)+29, 80, 12)
		r := stage4(shared, opts)
		tested += r.TestedPMCs
		exercised += r.Exercised
		rows = append(rows, []string{itoa(opts.Seed), itoa(r.TestedPMCs), itoa(r.Exercised), pct(r.Exercised, r.TestedPMCs)})
	}
	rows = append(rows, []string{"all", itoa(tested), itoa(exercised), pct(exercised, tested)})
	return mdTable([]string{"Seed", "Hinted tests", "Exercised their channel", "Share"}, rows...)
}

// renderSwitches is the thread switches one execution of the Figure 1 test
// makes under each scheduler.
func renderSwitches(t *testing.T) string {
	header := []string{"Scheduler"}
	for i := range docRuns {
		header = append(header, "seed "+itoa(i+1))
	}
	header = append(header, "mean")
	var rows [][]string
	for _, mode := range []sched.Mode{snowboard.ModeSnowboard, snowboard.ModeSKI} {
		env, set, ct := l2tpTest(t)
		x := execExplorer(env, set, mode)
		row, total := []string{mode.String()}, 0
		for i := range docRuns {
			x.Seed = int64(i) + 1
			n := x.Explore(ct).Switches
			total += n
			row = append(row, itoa(n))
		}
		env.Close()
		rows = append(rows, append(row, f1(total, docRuns)))
	}
	return mdTable(header, rows...)
}

// renderTriage is §6's minimization before and after: every triaged
// finding of two S-CH-NULL campaigns, and the Figure 1 crash found by a
// 512-trial exploration, minimized.
func renderTriage(t *testing.T) string {
	row := func(finding string, sig string, s triage.Stats) []string {
		return []string{finding, "`" + strings.ReplaceAll(sig, "|", `\|`) + "`",
			arrow(s.DecisionsOrig, s.DecisionsMin), arrow(s.SwitchesOrig, s.SwitchesMin),
			arrow(s.WriterCallsOrig, s.WriterCallsMin), arrow(s.ReaderCallsOrig, s.ReaderCallsMin), itoa(s.Replays)}
	}
	var rows [][]string
	for _, seed := range []int64{3, 5} {
		opts := snowboard.DefaultOptions()
		opts.Seed = seed
		opts.Method, _ = snowboard.MethodByName("S-CH-NULL")
		opts.FuzzBudget, opts.CorpusCap, opts.TestBudget, opts.Trials = 400, 100, 60, 24
		r, err := snowboard.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range r.BugIDs() {
			if tr := r.Issues[id].Triage; tr != nil {
				rows = append(rows, row(fmt.Sprintf("#%d (S-CH-NULL seed %d)", id, seed), tr.Signature, tr.Stats))
			}
		}
	}
	env, set, ct := l2tpTest(t)
	defer env.Close()
	x := &snowboard.Explorer{Env: env, Trials: 512, Seed: 1, Mode: snowboard.ModeSnowboard, Detect: detect.DefaultOptions(), KnownPMCs: set}
	out := x.Explore(ct)
	if out.Repro == nil {
		t.Fatal("the Figure 1 exploration recorded no repro state")
	}
	res, err := triage.Minimize(env, triage.Finding{Test: ct, State: out.Repro, BugID: 12}, triage.Options{Detect: detect.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	rows = append(rows, row("#12 (Figure 1 test, seed 1)", res.Signature.Key(), res.Stats))
	return mdTable([]string{"Finding", "Signature", "Decisions", "Switches", "Writer calls", "Reader calls", "Replays"}, rows...)
}

// profileLen is the number of accesses the Figure 1 reader's profile keeps
// with and without the ESP-based stack-range pruning (§4.1.1).
func profileLen(t *testing.T, env *snowboard.Env, keepStack bool) int {
	var tr trace.Trace
	res := env.RunSequential(l2tpReader(), &tr)
	if res.Crashed() {
		t.Fatalf("crashed: %v", res.Faults)
	}
	env.M.SetTrace(nil)
	f := trace.Filter{Thread: 0, KeepStack: keepStack}
	fb := f.Apply(&tr)
	return fb.Len()
}

// renderAblations is one row per ablation: the value filter on the shared
// analysis, the stack filter on the Figure 1 reader, incidental-PMC
// adoption on the Figure 1 test (at most 1,024 trials per run, each in a
// fresh kernel) and in Table 3's campaigns, and the cluster order under
// S-INS-PAIR on the shared analysis (40 tests × 12 trials, the paper's
// "Random S-INS-PAIR" row).
func renderAblations(t *testing.T) string {
	shared := sharedAnalysis(t)
	var filter []string
	for _, opt := range []pmc.Options{pmc.DefaultOptions(), {AllowSelfPairs: true, SkipValueFilter: true}} {
		set := pmc.Identify(shared.Profiles, opt)
		filter = append(filter, fmt.Sprintf("%d PMCs, %d combinations", set.Len(), set.TotalCombinations))
	}
	env := snowboard.NewEnv(snowboard.V5_12_RC3)
	stack := []string{itoa(profileLen(t, env, false)), itoa(profileLen(t, env, true))}
	env.Close()
	var incidental, seeds []string
	for i := range docRuns {
		seeds = append(seeds, itoa(int64(i)*101+7))
	}
	for _, disable := range []bool{false, true} {
		total := 0
		for i := range docRuns {
			env, set, ct := l2tpTest(t)
			x := &snowboard.Explorer{
				Env: env, Trials: 1024, Seed: int64(i)*101 + 7,
				Mode: snowboard.ModeSnowboard, Detect: detect.DefaultOptions(),
				KnownPMCs: set, DisableIncidental: disable,
			}
			out := x.Explore(ct)
			env.Close()
			n := 1025
			for _, is := range out.Issues {
				if is.BugID == 12 && is.Kind == detect.KindPanic {
					n = out.TrialOf(is) + 1
				}
			}
			total += n
		}
		incidental = append(incidental, f1(total, docRuns))
	}
	var rowThree [2][]string
	for _, name := range []string{"S-CH", "S-INS-PAIR"} {
		m, _ := snowboard.MethodByName(name)
		with, without := 0, 0
		for i := range docRuns {
			opts := stage4Opts(shared, int64(i)+17, 60, 12)
			opts.Method = m
			if _, ok := stage4(shared, opts).Issues[3]; ok {
				with++
			}
			if unadopted(shared, opts)[3] {
				without++
			}
		}
		rowThree[0] = append(rowThree[0], itoa(with))
		rowThree[1] = append(rowThree[1], itoa(without))
	}
	var order []string
	for _, o := range []struct {
		name string
		ord  cluster.Order
	}{{"uncommon-first", cluster.UncommonFirst}, {"random-order", cluster.RandomOrder}} {
		total := 0
		for i := range docRuns {
			opts := stage4Opts(shared, int64(i)+41, 40, 12)
			opts.Method = snowboard.Method{Name: "S-INS-PAIR*", Kind: 0, Strategy: cluster.SInsPair, Order: o.ord}
			total += len(stage4(shared, opts).BugIDs())
		}
		order = append(order, o.name+": "+f1(total, docRuns))
	}
	return mdTable([]string{"Ablation", "Measured", "With", "Without"},
		[]string{"Value filter (Algorithm 1 lines 9–11)", "PMCs identified", filter[0], filter[1]},
		[]string{"Stack filter (§4.1.1)", "accesses in the Figure 1 reader's profile", stack[0], stack[1]},
		[]string{"Incidental-PMC adoption (Algorithm 2 lines 26–27)", "mean trials to the Figure 1 crash, seeds " + strings.Join(seeds, ", "), incidental[0], incidental[1]},
		[]string{"Incidental-PMC adoption, unplanned clusters only", "runs finding #3 at 60 tests × 12 trials, S-CH / S-INS-PAIR, seeds 17–21", strings.Join(rowThree[0], " / ") + " of 5", strings.Join(rowThree[1], " / ") + " of 5"},
		[]string{"Cluster order", "mean issues per S-INS-PAIR run, seeds 41–45", order[0], order[1]})
}

// unadopted is stage4's one-shot run with incidental adoption off: the
// pipeline generates the tests, and each explores with the seed the
// pipeline would give it on an explorer that knows no PMCs. It returns the
// Table 2 ids found.
func unadopted(shared *snowboard.Pipeline, opts snowboard.Options) map[int]bool {
	p := pipelineOver(shared, opts)
	defer p.Close()
	x := &snowboard.Explorer{Env: p.Env, Trials: opts.Trials, Mode: snowboard.ModeSnowboard, Detect: opts.Detect,
		Fsck: func() []string { return p.Env.K.FsckHost() }}
	found := make(map[int]bool)
	for i, ct := range p.GenerateTests(p.NewReport(), opts.TestBudget) {
		x.Seed = par.UnitSeed(opts.Seed, par.StageExplore, i)
		for _, is := range x.Explore(ct).Issues {
			found[is.BugID] = true
		}
	}
	return found
}

// renderFeedback is the feedback loop against uncommon-first at equal
// trials on the shared analysis, seeds 3–7. The loop is handed 400 tests ×
// 24 trials; uncommon-first repeats its one-test-per-cluster pass until it
// has spent as many trials, its last pass cut to the tests that should fill
// them. A row counts if it was first exposed within the loop's trials, and
// its first exposure is the cumulative trial, in fold order, on which it
// surfaced: the second table gives each row's median over the seeds. The
// third is the CLI's default budget (renderFeedbackCLI).
func renderFeedback(t *testing.T) string {
	shared := sharedAnalysis(t)
	arms := []string{"uncommon-first, continued", "feedback loop"}
	var rows [][]string
	firsts := make([][]map[int]int, len(arms)) // by arm, seed
	sums := make([]struct{ tests, trials, rows, sooner, composed int }, len(arms))
	for i := range docRuns {
		seed := int64(i) + 3
		loop, loopFirst := exposureRun(t, shared, seed, 0)
		uf, ufFirst := exposureRun(t, shared, seed, loop.TrialsRun)
		runs := []*snowboard.Report{uf, loop}
		first := []map[int]int{within(ufFirst, loop.TrialsRun), loopFirst}
		for a, r := range runs {
			firsts[a] = append(firsts[a], first[a])
			sooner := 0
			for id, fe := range first[a] {
				if other, ok := first[1-a][id]; !ok || fe < other {
					sooner++
				}
			}
			ids := slices.Sorted(maps.Keys(first[a]))
			s := &sums[a]
			s.tests += r.TestedTests
			s.trials += r.TrialsRun
			s.rows += len(ids)
			s.sooner += sooner
			s.composed += r.ComposedTests
			rows = append(rows, []string{itoa(seed), arms[a], itoa(r.TestedTests), itoa(r.TrialsRun),
				fmt.Sprint(len(ids), " — ", ids), itoa(sooner), itoa(r.ComposedTests)})
		}
	}
	for a, name := range arms {
		s := sums[a]
		rows = append(rows, []string{"mean", name, f1(s.tests, docRuns), f1(s.trials, docRuns),
			f1(s.rows, docRuns), f1(s.sooner, docRuns), f1(s.composed, docRuns)})
	}
	perSeed := mdTable([]string{"Seed", "Arm", "Tests run", "Trials run", "Table 2 rows", "Rows first exposed sooner",
		"Composed"}, rows...)

	union := map[int]bool{}
	for _, fs := range firsts {
		for _, f := range fs {
			for id := range f {
				union[id] = true
			}
		}
	}
	rows = nil
	for _, id := range slices.Sorted(maps.Keys(union)) {
		row := []string{"#" + itoa(id)}
		for a := range arms {
			row = append(row, medianExposure(firsts[a], id))
		}
		rows = append(rows, row)
	}
	return perSeed + "\n" + mdTable(append([]string{"Row"}, arms...), rows...) + "\n" + renderFeedbackCLI(t)
}

// renderFeedbackCLI is one-shot against the feedback loop at the CLI's
// default budget (fuzz 400, corpus 120, 60 tests × 16 trials), each a
// whole campaign with its own corpus, at seeds 3–12 on both kernel
// versions: Table 2 rows per seed, then per campaign with the trials
// spent, and on how many seeds the loop finds at least one-shot's rows.
func renderFeedbackCLI(t *testing.T) string {
	versions := []snowboard.Version{snowboard.V5_3_10, snowboard.V5_12_RC3}
	const seeds = 10
	var header []string
	rows := make([][]string, seeds)
	var rowSums, trialSums []int
	var atLeast []string
	for _, v := range versions {
		var sums [2]struct{ rows, trials int }
		ge := 0
		for i := range rows {
			seed := int64(i) + 3
			if rows[i] == nil {
				rows[i] = []string{itoa(seed)}
			}
			var found [2]int
			for a, feedback := range []bool{false, true} {
				opts := snowboard.DefaultOptions()
				opts.Version, opts.Seed, opts.Feedback = v, seed, feedback
				opts.FuzzBudget, opts.CorpusCap, opts.TestBudget, opts.Trials = 400, 120, 60, 16
				r, err := snowboard.Run(opts)
				if err != nil {
					t.Fatal(err)
				}
				found[a] = len(r.Issues)
				sums[a].rows += found[a]
				sums[a].trials += r.TrialsRun
				rows[i] = append(rows[i], itoa(found[a]))
			}
			if found[1] >= found[0] {
				ge++
			}
		}
		header = append(header, string(v)+" one-shot", string(v)+" `-feedback`")
		for _, s := range sums {
			rowSums, trialSums = append(rowSums, s.rows), append(trialSums, s.trials)
		}
		atLeast = append(atLeast, "", fmt.Sprintf("%d of %d", ge, seeds))
	}
	perCampaign, trials := []string{"rows / campaign"}, []string{"trials / campaign"}
	for a := range rowSums {
		perCampaign = append(perCampaign, f1(rowSums[a], seeds))
		trials = append(trials, f1(trialSums[a], seeds))
	}
	rows = append(rows, perCampaign, trials, append([]string{"seeds with at least one-shot's rows"}, atLeast...))
	return mdTable(append([]string{"Seed"}, header...), rows...)
}

// exposureRun is one arm of renderFeedback over the shared analysis at
// seed, at one worker so that the pmc.tested events arrive in fold order:
// with budget 0 the feedback loop, otherwise uncommon-first passes until
// they have spent budget trials. It returns the report and each row's first
// exposure.
func exposureRun(t *testing.T, shared *snowboard.Pipeline, seed int64, budget int) (*snowboard.Report, map[int]int) {
	opts := stage4Opts(shared, seed, 400, 24)
	opts.Workers, opts.Feedback = 1, budget == 0
	p := pipelineOver(shared, opts)
	defer p.Close()
	var perTest trialCounts
	obs.Events.SetSink(&perTest)
	defer obs.Events.SetSink(nil)
	r := p.NewReport()
	if opts.Feedback {
		if err := p.RunFeedback(r, opts.TestBudget); err != nil {
			t.Fatal(err)
		}
	}
	for n := opts.TestBudget; r.TrialsRun < budget; {
		if err := p.ExecuteTests(r, p.GenerateTests(r, n)); err != nil {
			t.Fatal(err)
		}
		n = min(r.ExemplarPMCs, max(1, (budget-r.TrialsRun)*r.TestedTests/r.TrialsRun))
	}
	return r, firstExposures(t, r, perTest)
}

// trialCounts is an events sink keeping each explored test's trials, in
// emission order.
type trialCounts []int

func (c *trialCounts) Write(b []byte) (int, error) {
	var ev obs.Event
	if err := json.Unmarshal(b, &ev); err == nil && ev.Kind == obs.EvPMCTested {
		n, _ := ev.Attrs["trials"].(float64)
		*c = append(*c, int(n))
	}
	return len(b), nil
}

// firstExposures is each found row's first-exposure trial: the trials of
// the tests folded before the one that found it, plus its trial (1-based).
// perTest holds every test's trials in fold order.
func firstExposures(t *testing.T, r *snowboard.Report, perTest []int) map[int]int {
	prefix := []int{0}
	for _, n := range perTest {
		prefix = append(prefix, prefix[len(prefix)-1]+n)
	}
	if len(perTest) != r.TestedTests || prefix[len(perTest)] != r.TrialsRun {
		t.Fatalf("%d pmc.tested events of %d trials for %d tests of %d trials", len(perTest), prefix[len(perTest)],
			r.TestedTests, r.TrialsRun)
	}
	first := make(map[int]int, len(r.Issues))
	for id, rec := range r.Issues {
		first[id] = prefix[rec.TestIndex-1] + rec.Trial + 1
	}
	return first
}

// within keeps the rows of first that were first exposed by trial budget.
func within(first map[int]int, budget int) map[int]int {
	out := make(map[int]int, len(first))
	for id, fe := range first {
		if fe <= budget {
			out[id] = fe
		}
	}
	return out
}

// medianExposure is the median over the runs of row id's first exposure,
// a run that never exposed it counting as later than any that did, with
// the share of runs that did when some did not.
func medianExposure(runs []map[int]int, id int) string {
	const never = math.MaxInt
	var fes []int
	found := 0
	for _, f := range runs {
		fe, ok := f[id]
		if ok {
			found++
		} else {
			fe = never
		}
		fes = append(fes, fe)
	}
	slices.Sort(fes)
	lo, hi := fes[(len(fes)-1)/2], fes[len(fes)/2]
	out := "—"
	if hi != never {
		out = strconv.FormatFloat(float64(lo+hi)/2, 'f', -1, 64)
	}
	if found < len(fes) {
		out += fmt.Sprintf(" (%d of %d)", found, len(fes))
	}
	return out
}

// docTableBlocks returns the lines between each "<!-- doctable:NAME -->"
// line of doc and the next "<!-- /doctable -->" line, by NAME.
func docTableBlocks(doc string) (map[string]string, error) {
	const open, closing = "<!-- doctable:", "<!-- /doctable -->"
	blocks := map[string]string{}
	name, block := "", ""
	for _, line := range strings.SplitAfter(doc, "\n") {
		marker := strings.TrimSuffix(line, "\n")
		switch {
		case strings.HasPrefix(marker, open) && strings.HasSuffix(marker, " -->"):
			if name != "" {
				return nil, fmt.Errorf("doctable:%s has no %s line", name, closing)
			}
			name, block = strings.TrimSuffix(strings.TrimPrefix(marker, open), " -->"), ""
			if _, dup := blocks[name]; dup {
				return nil, fmt.Errorf("two doctable:%s blocks", name)
			}
		case marker == closing:
			if name == "" {
				return nil, fmt.Errorf("a %s line closes no block", closing)
			}
			blocks[name], name = block, ""
		case name != "":
			block += line
		}
	}
	if name != "" {
		return nil, fmt.Errorf("doctable:%s has no %s line", name, closing)
	}
	return blocks, nil
}

// fence is a rendered block between its markers, as EXPERIMENTS.md holds
// it.
func fence(name, block string) string {
	return "<!-- doctable:" + name + " -->\n" + block + "<!-- /doctable -->"
}

// mdTable renders a markdown table.
func mdTable(header []string, rows ...[]string) string {
	var b strings.Builder
	line := func(cells []string) { b.WriteString("| " + strings.Join(cells, " | ") + " |\n") }
	line(header)
	b.WriteString(strings.Repeat("|---", len(header)) + "|\n")
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

func itoa[T int | int64](n T) string { return strconv.FormatInt(int64(n), 10) }

// f1 is total/n to one decimal.
func f1(total, n int) string { return strconv.FormatFloat(float64(total)/float64(n), 'f', 1, 64) }

// pct is part/whole as a percentage to one decimal.
func pct(part, whole int) string {
	return strconv.FormatFloat(100*float64(part)/float64(whole), 'f', 1, 64) + "%"
}

func arrow(before, after int) string { return itoa(before) + " → " + itoa(after) }
