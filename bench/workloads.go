package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"snowboard/internal/cluster"
	"snowboard/internal/core"
	"snowboard/internal/corpus"
	"snowboard/internal/detect"
	"snowboard/internal/exec"
	"snowboard/internal/fuzz"
	"snowboard/internal/kernel"
	"snowboard/internal/pmc"
	"snowboard/internal/queue"
	"snowboard/internal/sched"
)

// scale fixes the size of every unit of work. Units never shrink to fit a
// time budget; a shorter run completes fewer of them.
type scale struct {
	fuzz, corpusCap, tests, trials int // one-shot campaign (hunt, fleet)
	fbTests, fbRounds              int // closed-loop campaign (feedback)
	feBudget, feSeeds              int // frontend: fuzz budget per seed, seeds per unit
	campaigns                      int // fleet: concurrent campaigns per unit
	decompTests, decompTrials      int // traced pass: trial decomposition
}

var (
	// fullScale is the ROADMAP's evidence configuration. The feedback
	// budget is a quarter of a production loop's so that a run completes
	// enough distinct seeds for a steady median.
	fullScale = scale{
		fuzz: 600, corpusCap: 150, tests: 400, trials: 24,
		fbTests: 250, fbRounds: 4,
		feBudget: 2000, feSeeds: 16,
		campaigns:   4,
		decompTests: 150, decompTrials: 8,
	}
	// smokeScale runs every code path in well under a second per unit; it
	// also serves as the warm-up unit of a set-up round.
	smokeScale = scale{
		fuzz: 80, corpusCap: 24, tests: 10, trials: 4,
		fbTests: 12, fbRounds: 2,
		feBudget: 120, feSeeds: 2,
		campaigns:   2,
		decompTests: 6, decompTrials: 3,
	}
)

// budget is what a unit actually spent, which the ROADMAP asks every claim
// to record.
type budget struct {
	Tests     int `json:"tests"`
	Trials    int `json:"trials"`
	Steps     int `json:"steps"`
	FuzzExecs int `json:"fuzz_execs"`
}

func (b *budget) add(o budget) {
	b.Tests += o.Tests
	b.Trials += o.Trials
	b.Steps += o.Steps
	b.FuzzExecs += o.FuzzExecs
}

// unitResult is the measured outcome of one unit of work.
type unitResult struct {
	Seed     int64         `json:"seed"`
	Wall     time.Duration `json:"wall_ns"`
	Busy     time.Duration `json:"busy_ns"` // the stage trials_per_s is taken over
	Trials   int           `json:"trials"`  // guest runs inside Busy
	Mallocs  uint64        `json:"mallocs"`
	Bytes    uint64        `json:"bytes"`
	Digest   string        `json:"digest"`        // everything but timings
	Stable   string        `json:"stable_digest"` // also without issue attribution; see stableDigest
	Spent    budget        `json:"budget_spent"`
	Issues   int           `json:"issues_found"`
	Segments int           `json:"segments"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`

	// Extra carries workload-specific timings for the report line
	// (identification engines on frontend, warm pass on fleet).
	Extra map[string]float64 `json:"extra,omitempty"`
}

func (u *unitResult) fail(n int, format string, args ...any) {
	u.Failed += n
	u.Problems = append(u.Problems, fmt.Sprintf(format, args...))
}

// artifacts is what stages 1–3 of a unit produced, kept for the traced
// pass's probes.
type artifacts struct {
	opts   core.Options
	pipe   *core.Pipeline // Corpus, Profiles and PMCs filled
	tests  []sched.ConcurrentTest
	report *core.Report
	fuzz   fuzz.CampaignResult // summed over the unit's campaigns
}

// pipelineOver returns a fresh pipeline for opts over already built
// stage 1–3 artifacts, so that its stage-4 seeds start from unit 0.
func pipelineOver(opts core.Options, c *corpus.Corpus, profiles []pmc.Profile, set *pmc.Set) *core.Pipeline {
	p := core.NewPipeline(opts)
	p.SetCorpus(c)
	p.SetProfiles(profiles)
	p.SetPMCs(set)
	return p
}

// runCtx is the state a workload's set-up leaves for its units.
type runCtx struct {
	sc    scale
	env   *exec.Env // replays recorded trials; frontend also runs guests on it
	tmp   string    // scratch directory inside the checkout
	slots int       // fleet turn slots: min(2, nproc)
}

type workload struct {
	name, why string
	// stride separates the seeds of consecutive units, so that units drawing
	// several seeds each never share one.
	stride func(sc scale) int64
	// prefix is how many units every run completes whatever its time
	// budget, so that counts over them compare exactly between two runs.
	prefix int
	unit   func(ctx *runCtx, seed int64) unitResult
}

func one(scale) int64 { return 1 }

var workloads = []workload{
	{
		name:   "hunt",
		why:    "one-shot uncommon-first S-INS-PAIR campaigns through core.Run: stage 4 (sched, vm/exec, detect, cover) is ~93% of wall; pmc, store, queue do almost nothing",
		stride: one, prefix: 6,
		unit: func(ctx *runCtx, seed int64) unitResult {
			return campaignUnit(ctx, campaignOpts(ctx.sc, seed, false))
		},
	},
	{
		name:   "feedback",
		why:    "closed-loop campaigns (Options.Feedback): schedule mutation, composed hints and per-round planning use the stage-4 layers differently from hunt",
		stride: one, prefix: 4,
		unit: func(ctx *runCtx, seed int64) unitResult {
			return campaignUnit(ctx, campaignOpts(ctx.sc, seed, true))
		},
	},
	{
		name:   "frontend",
		why:    "stages 1-3 only over a multi-seed union corpus: fuzz, trace filtering, both PMC identification engines and clustering dominate; stage-4 changes must read no change here",
		stride: func(sc scale) int64 { return int64(sc.feSeeds) }, prefix: 2,
		unit: func(ctx *runCtx, seed int64) unitResult {
			u, _ := frontendUnit(ctx, seed, nil)
			return u
		},
	},
	{
		name:   "fleet",
		why:    "concurrent campaigns through core.StartCampaign over a TCP queue registry with a state dir, cold then warm: queue, store and the control plane carry weight",
		stride: func(sc scale) int64 { return int64(sc.campaigns) }, prefix: 2,
		unit: fleetUnit,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// campaignOpts is the generated spec of one campaign; the program under
// test receives nothing else.
func campaignOpts(sc scale, seed int64, feedback bool) core.Options {
	o := core.DefaultOptions() // v5.12-rc3, S-INS-PAIR, uncommon-first
	o.Seed = seed
	o.FuzzBudget = sc.fuzz
	o.CorpusCap = sc.corpusCap
	o.TestBudget = sc.tests
	o.Trials = sc.trials
	o.Workers = 1
	if feedback {
		o.Feedback = true
		o.FeedbackRounds = sc.fbRounds
		o.TestBudget = sc.fbTests
	}
	return o
}

type memMark struct{ mallocs, bytes uint64 }

func markMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{ms.Mallocs, ms.TotalAlloc}
}

func (u *unitResult) since(m memMark) {
	now := markMem()
	u.Mallocs, u.Bytes = now.mallocs-m.mallocs, now.bytes-m.bytes
}

// guarded runs fn, turning a panic in the program under test into an error
// so that it counts as failed operations instead of killing the run.
func guarded(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// campaignUnit runs one campaign through the front door and checks its
// report. An operation is one concurrent test.
func campaignUnit(ctx *runCtx, opts core.Options) unitResult {
	u := unitResult{Seed: opts.Seed}
	var r *core.Report
	mem := markMem()
	t0 := time.Now()
	err := guarded(func() (err error) {
		r, err = core.Run(opts)
		return err
	})
	u.Wall = time.Since(t0)
	u.since(mem)
	if err != nil {
		u.Attempted = opts.TestBudget
		u.fail(opts.TestBudget, "seed %d: %v", opts.Seed, err)
		return u
	}
	u.fillFromReport(ctx.env, r, opts)
	return u
}

// fillFromReport copies a finished campaign's counters into the unit and
// checks its findings.
func (u *unitResult) fillFromReport(env *exec.Env, r *core.Report, opts core.Options) {
	u.Busy, u.Trials = r.ExecTime, r.TrialsRun
	u.Spent = budget{Tests: r.TestedTests, Trials: r.TrialsRun, Steps: r.Steps, FuzzExecs: r.FuzzExecutions}
	u.Issues, u.Segments = len(r.Issues), r.CoverSegments
	u.Attempted = r.TestedTests
	for _, p := range checkReport(env, r, opts.Detect) {
		u.fail(1, "seed %d: %s", opts.Seed, p)
	}
	var err error
	if u.Digest, err = reportDigest(r); err != nil {
		u.fail(1, "seed %d: %v", opts.Seed, err)
	}
	if u.Stable, err = stableDigest(r); err != nil {
		u.fail(1, "seed %d: %v", opts.Seed, err)
	}
}

// frontendUnit runs stages 1–3 at the largest scale the mini-kernel
// supports: sequential fuzz campaigns for several seeds, the union of their
// corpora profiled, Algorithm 1 over those real profiles through both
// engines, and every clustering strategy. An operation is one sequential
// execution or one profiling run.
func frontendUnit(ctx *runCtx, seed int64, rec *recorder) (unitResult, *artifacts) {
	u := unitResult{Seed: seed, Extra: make(map[string]float64)}
	art := &artifacts{opts: campaignOpts(ctx.sc, seed, false)}
	env := ctx.env
	union := corpus.NewCorpus()
	var oneshot, incremental *pmc.Set
	var profiles []pmc.Profile
	digest := new(bytes.Buffer)

	mem := markMem()
	t0 := time.Now()
	err := guarded(func() error {
		u.Busy = rec.do("core.fuzz", func() {
			for j := 0; j < ctx.sc.feSeeds; j++ {
				res := fuzz.Campaign(env, seed+int64(j), ctx.sc.feBudget, 0)
				art.fuzz.Executed += res.Executed
				art.fuzz.Selected += res.Selected
				art.fuzz.Crashes += res.Crashes
				for _, p := range res.Corpus.Progs {
					union.Add(p)
				}
			}
		})
		crashed := 0
		rec.do("core.profile", func() {
			for i, p := range union.Progs {
				accs, df, res := env.Profile(p)
				if res.Crashed() || res.Hung || res.Deadlock {
					crashed++
					continue
				}
				profiles = append(profiles, pmc.Profile{TestID: i, Accesses: accs, DFLeader: df})
			}
		})
		if crashed > 0 {
			u.fail(crashed, "seed %d: %d corpus programs crashed while profiling", seed, crashed)
		}
		u.Extra["identify_oneshot_s"] = rec.do("core.identify", func() {
			oneshot = pmc.IdentifyParallel(profiles, pmc.DefaultOptions(), 1)
		}).Seconds()
		u.Extra["identify_incr_s"] = rec.do("pmc.incremental", func() {
			incremental = incrementalOver(profiles, pmc.DefaultOptions()).Set()
		}).Seconds()
		rec.do("core.generate", func() {
			for _, s := range cluster.Strategies {
				fmt.Fprintf(digest, "%s=%d ", s.Name, len(cluster.Clusters(oneshot, s)))
			}
			rng := rand.New(rand.NewSource(seed))
			cs := cluster.Clusters(oneshot, cluster.SInsPair)
			cluster.OrderClusters(cs, cluster.UncommonFirst, rng)
			for i := range cs {
				fmt.Fprintf(digest, "%v ", cluster.Exemplar(&cs[i], rng))
			}
		})
		return nil
	})
	u.Wall = time.Since(t0)
	u.since(mem)

	u.Trials = art.fuzz.Executed
	u.Spent = budget{FuzzExecs: art.fuzz.Executed}
	u.Attempted = art.fuzz.Executed + union.Len()
	if err != nil {
		u.fail(u.Attempted-u.Failed, "seed %d: %v", seed, err)
		return u, art
	}
	if diff := checkSameSet(oneshot, incremental); diff != "" {
		u.fail(1, "seed %d: incremental PMC set differs from one-shot: %s", seed, diff)
	}
	for _, p := range union.Progs {
		digest.WriteString(p.Hash())
	}
	if err := pmc.EncodeSet(digest, oneshot); err != nil {
		u.fail(1, "seed %d: encode PMC set: %v", seed, err)
	}
	u.Digest = shortHash(digest.Bytes())
	u.Stable = u.Digest
	u.Extra["corpus"] = float64(union.Len())
	u.Extra["pmcs"] = float64(oneshot.Len())

	art.pipe = pipelineOver(art.opts, union, profiles, oneshot)
	return u, art
}

// incrementalBatch is the profile batch size of the store-backed
// identification path (core/state.go chains one memo per 16 profiles).
const incrementalBatch = 16

// incrementalOver feeds the profiles to a fresh incremental identifier in
// batches of incrementalBatch.
func incrementalOver(profiles []pmc.Profile, opt pmc.Options) *pmc.Incremental {
	inc := pmc.NewIncremental(opt)
	for lo := 0; lo < len(profiles); lo += incrementalBatch {
		inc.AddBatch(profiles[lo:min(lo+incrementalBatch, len(profiles))])
	}
	return inc
}

// fleetUnit drives the control plane: concurrent campaigns in one
// CampaignEnv over a fresh state dir, leasing their jobs over loopback TCP
// under a turn scheduler (cold pass); then a fresh env over the same state
// dir restarts the same specs (warm pass). An operation is one job.
func fleetUnit(ctx *runCtx, seed int64) unitResult {
	u := unitResult{Seed: seed, Extra: make(map[string]float64)}
	dir, err := os.MkdirTemp(ctx.tmp, "fleet-")
	if err != nil {
		u.Attempted = 1
		u.fail(1, "seed %d: %v", seed, err)
		return u
	}
	defer os.RemoveAll(dir)
	specs := make([]core.CampaignSpec, ctx.sc.campaigns)
	for j := range specs {
		specs[j] = core.CampaignSpec{
			Name:       fmt.Sprintf("fleet-%d", j),
			Version:    string(kernel.V5_12_RC3),
			Seed:       seed + int64(j),
			FuzzBudget: ctx.sc.fuzz,
			CorpusCap:  ctx.sc.corpusCap,
			TestBudget: ctx.sc.tests,
			Trials:     ctx.sc.trials,
			Workers:    1,
		}
	}

	mem := markMem()
	t0 := time.Now()
	cold, err := fleetPass(ctx, dir, specs)
	u.Busy = time.Since(t0)
	var warm [][]byte
	if err == nil {
		warm, err = fleetPass(ctx, dir, specs)
	}
	u.Wall = time.Since(t0)
	u.since(mem)
	u.Extra["warm_pass_s"] = (u.Wall - u.Busy).Seconds()
	// The end-to-end wall of a fleet unit is its cold pass; the warm pass
	// is a per-layer number (core.resume_warm).
	u.Wall = u.Busy
	if err != nil {
		u.Attempted = ctx.sc.campaigns * ctx.sc.tests
		u.fail(u.Attempted, "seed %d: %v", seed, err)
		return u
	}

	digest, stable := new(bytes.Buffer), new(bytes.Buffer)
	bugs := make(map[int]bool)
	for j := range cold {
		if !bytes.Equal(cold[j], warm[j]) {
			u.fail(1, "seed %d: campaign %d: warm report differs from cold", seed, j)
		}
		var r core.Report
		if err := json.Unmarshal(cold[j], &r); err != nil {
			u.fail(1, "seed %d: campaign %d: decode report: %v", seed, j, err)
			continue
		}
		sum := r.Distributed
		failed, problems := checkFold(sum)
		for _, p := range problems {
			u.fail(0, "seed %d: campaign %d: %s", seed, j, p)
		}
		u.Failed += failed
		if sum == nil {
			continue
		}
		u.Attempted += sum.Expected
		u.Trials += sum.Trials
		u.Spent.add(budget{Tests: sum.Reported, Trials: sum.Trials, FuzzExecs: r.FuzzExecutions})
		for _, id := range sum.BugIDs {
			bugs[id] = true
			if _, ok := detect.BugByID(id); !ok {
				u.fail(1, "seed %d: campaign %d: issue #%d is not a Table 2 row", seed, j, id)
			}
		}
		d, err := reportDigest(&r)
		if err != nil {
			u.fail(1, "seed %d: campaign %d: %v", seed, j, err)
		}
		digest.WriteString(d)
		if d, err = stableDigest(&r); err != nil {
			u.fail(1, "seed %d: campaign %d: %v", seed, j, err)
		}
		stable.WriteString(d)
	}
	u.Issues = len(bugs)
	u.Digest = shortHash(digest.Bytes())
	u.Stable = shortHash(stable.Bytes())
	return u
}

// fleetPass starts every spec in one fresh CampaignEnv rooted at dir, waits
// for all of them and returns their report JSON.
func fleetPass(ctx *runCtx, dir string, specs []core.CampaignSpec) ([][]byte, error) {
	reg := queue.NewRegistry(queue.Options{})
	defer reg.Close()
	srv, err := queue.ServeRegistry(reg, "127.0.0.1:0", queue.ServerOptions{})
	if err != nil {
		return nil, fmt.Errorf("serve registry: %w", err)
	}
	defer srv.Close()
	env := core.CampaignEnv{
		StateDir: dir,
		Registry: reg,
		Addr:     srv.Addr(),
		Slice:    4,
		Turns:    core.NewTurnScheduler(ctx.slots),
	}
	running := make([]*core.Campaign, 0, len(specs))
	var firstErr error
	for _, spec := range specs {
		c, err := core.StartCampaign(spec, env)
		if err != nil {
			firstErr = fmt.Errorf("start campaign seed %d: %w", spec.Seed, err)
			break
		}
		running = append(running, c)
	}
	// Wait for every started campaign even after a failed start, so none
	// outlives the pass.
	reports := make([][]byte, 0, len(running))
	for _, c := range running {
		r, err := c.Wait()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("campaign %s: %w", c.ID, err)
			}
			continue
		}
		b, err := json.Marshal(r)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("campaign %s: encode report: %w", c.ID, err)
		}
		reports = append(reports, b)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return reports, nil
}
