// Command bench is the repository's benchmark: four workloads over the
// campaign pipeline, end-to-end metrics with tracing off and per-layer
// metrics from a traced pass. See README.md beside this file.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"snowboard/internal/exec"
	"snowboard/internal/kernel"
	"snowboard/internal/obs"
)

type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	smoke     bool
	selfcheck bool
	verbose   bool
	out       string
}

// setupRounds is how often a run repeats its set-up to report a median. A
// set-up takes ~20 ms and varies by a third from one to the next, so it
// takes this many for the median to hold still.
const setupRounds = 15

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "run one workload (hunt, feedback, frontend, fleet); empty runs all four, each in a child process")
	flag.Int64Var(&cfg.seed, "seed", 3, "derives every unit's seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long the timed section of one workload measures")
	flag.IntVar(&cfg.trace, "trace", 0, "1 runs the traced pass (per-layer metrics) instead of the end-to-end rounds")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny units, for tests")
	flag.BoolVar(&cfg.selfcheck, "selfcheck", false, "run the end-to-end set twice and compare (A/A)")
	flag.BoolVar(&cfg.verbose, "v", false, "keep the program's diagnostics on stderr")
	flag.StringVar(&cfg.out, "out", defaultOut(), "directory for trace files and scratch state")
	flag.Parse()
	if flag.NArg() > 0 || cfg.trace < 0 || cfg.trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments; -trace takes 0 or 1")
		os.Exit(2)
	}
	if !cfg.verbose {
		obs.Diag.SetOutput(io.Discard)
	}
	var err error
	switch {
	case cfg.selfcheck:
		err = selfcheck(cfg, os.Stdout)
	case cfg.workload == "":
		err = runAll(cfg, os.Stdout)
	default:
		err = runOne(cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// defaultOut is bench/out seen from the repository root, or out when the
// program is started inside bench/.
func defaultOut() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// header is what the ROADMAP asks every claim to record.
type header struct {
	Host       string   `json:"host"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Go         string   `json:"go"`
	Commit     string   `json:"commit"`
	Command    []string `json:"command"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Scale      string   `json:"scale"`
}

func newHeader(cfg config) header {
	host, _ := os.Hostname()
	commit := "unknown" // a checkout without .git
	if out, err := osexec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	h := header{
		Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: commit, Command: os.Args,
		Seed: cfg.seed, Seconds: cfg.seconds, Scale: "full",
	}
	if cfg.smoke {
		h.Scale = "smoke"
	}
	return h
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a single-workload run, in the shape the
// driver reads.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is the line before it: everything else a reader or the A/A check
// wants, kept out of the result so that its keys stay exact.
type report struct {
	Workload string   `json:"workload"`
	Header   header   `json:"header"`
	Units    int      `json:"units"`
	UnitWall *summary `json:"unit_wall_s,omitempty"` // as measured
	Setup    *summary `json:"setup_s,omitempty"`     // as measured
	// Speed is the host speed factor wall_s and trials_per_s are scaled by,
	// Reference the measured reference-kernel times it comes from, and
	// SetupSpeed the factor over the set-up rounds, which scales setup_s.
	Speed      float64  `json:"host_speed,omitempty"`
	Reference  *summary `json:"reference_s,omitempty"`
	SetupSpeed float64  `json:"setup_host_speed,omitempty"`
	// Prefix lists the units every run completes whatever its time budget;
	// Spent sums them. Two runs of one seed agree on both exactly.
	Prefix   []unitResult   `json:"prefix,omitempty"`
	Spent    budget         `json:"budget_spent"`
	Checks   map[string]any `json:"checks,omitempty"`
	Problems []string       `json:"problems,omitempty"`
	// Notes are observations that fail nothing, e.g. two runs of one seed
	// whose reports differ only in how a panic was attributed.
	Notes []string `json:"notes,omitempty"`
}

// baseSeed maps any -seed onto a positive campaign seed: a CampaignSpec
// reads seed 0 as "default". Positive seeds are used as given.
func baseSeed(seed int64) int64 {
	if seed > 0 {
		return seed
	}
	return 1<<40 - seed
}

func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// setUp boots what a workload's units need and runs one warm-up unit at
// smoke scale, untimed by the rounds that follow but timed as set-up.
func setUp(w workload, sc scale, tmp string, base int64) (*runCtx, time.Duration, []string) {
	t0 := time.Now()
	ctx := &runCtx{
		sc:    sc,
		env:   exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3}),
		tmp:   tmp,
		slots: min(2, runtime.NumCPU()),
	}
	warm := *ctx
	warm.sc = smokeScale
	u := w.unit(&warm, base)
	return ctx, time.Since(t0), u.Problems
}

// runOne runs one workload in this process and prints its metrics, a
// report line and the result line. The error is non-nil when a check
// failed.
func runOne(cfg config, stdout io.Writer) error {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	sc, prefix, rounds := fullScale, w.prefix, setupRounds
	if cfg.smoke {
		sc, prefix, rounds = smokeScale, 1, 3
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(cfg.out, "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	base := baseSeed(cfg.seed)

	rep := report{Workload: w.name, Header: newHeader(cfg)}
	res := result{Metrics: make(map[string]value)}

	// Set-up repeats, each round followed by one reference sample, so that
	// setup_s is a median in reference-host seconds like the other times.
	var ctx *runCtx
	var setups []float64
	var reference []time.Duration
	for i := 0; i < rounds; i++ {
		var d time.Duration
		var problems []string
		ctx, d, problems = setUp(w, sc, tmp, base)
		setups = append(setups, d.Seconds())
		rep.Problems = append(rep.Problems, problems...)
		reference = append(reference, referenceSample())
	}
	setup := summarize(setups)
	rep.Setup = &setup
	rep.SetupSpeed = hostSpeed(reference)

	if cfg.trace == 1 {
		rec := newRecorder(fmt.Sprintf("%s-%d", w.name, base))
		t := tracedPass(w, ctx, base, rec)
		res.Attempted, res.Failed = t.attempted, t.failed
		rep.Problems = append(rep.Problems, t.problems...)
		rep.Checks = t.checks
		path := filepath.Join(cfg.out, "trace-"+w.name+".jsonl")
		if err := rec.write(path); err != nil {
			rep.Problems = append(rep.Problems, fmt.Sprintf("write %s: %v", path, err))
		}
		rep.Checks["trace_file"] = path
		rep.Checks["spans"] = len(rec.spans)
		for _, m := range perLayer {
			v, ok := t.layers[m.Name]
			if !ok {
				rep.Problems = append(rep.Problems, "traced pass did not measure "+m.Name)
			}
			res.Metrics[m.Name] = value{v, m.Unit}
		}
		if w.name == "hunt" && !cfg.smoke && t.layers["probe_coverage_pct"] < 70 {
			rep.Problems = append(rep.Problems, fmt.Sprintf(
				"probe_coverage_pct %.1f < 70: the probes no longer describe the explorer's loop", t.layers["probe_coverage_pct"]))
		}
	} else {
		units, reference := timedRounds(w, ctx, base, prefix, cfg.seconds)
		endToEndMetrics(units, reference, prefix, setup.Median*rep.SetupSpeed, &rep, &res)
	}

	if res.Attempted == 0 {
		res.Attempted = 1
	}
	res.Correct = res.Failed == 0 && len(rep.Problems) == 0
	printMetrics(stdout, w.name, cfg.trace, res)
	if err := printJSON(stdout, rep); err != nil {
		return err
	}
	if err := printJSON(stdout, res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed, %d problems: %s",
			w.name, res.Failed, res.Attempted, len(rep.Problems), strings.Join(rep.Problems, "; "))
	}
	return nil
}

// timedRounds is the closed loop: one unit at a time, the next starting
// when the previous has finished. Unit 0 runs twice, so that every run
// checks that one seed gives one report; then units 1, 2, … until the time
// budget is spent, and in any case the first prefix units. After each unit
// the reference kernel runs referenceRate times per second the unit took.
func timedRounds(w workload, ctx *runCtx, base int64, prefix int, seconds float64) ([]unitResult, []time.Duration) {
	stride := w.stride(ctx.sc)
	var units []unitResult
	var reference []time.Duration
	start := time.Now()
	for i := 0; ; i++ {
		if i > prefix {
			// Stop where the expected overshoot is half a unit either way.
			elapsed := time.Since(start).Seconds()
			if elapsed+elapsed/float64(i)/2 >= seconds {
				break
			}
		}
		index := int64(max(0, i-1))
		u := w.unit(ctx, base+index*stride)
		units = append(units, u)
		for k := 0; k < max(1, int(referenceRate*u.Wall.Seconds()+0.5)); k++ {
			reference = append(reference, referenceSample())
		}
	}
	return units, reference
}

// endToEndMetrics folds the units into the end-to-end metrics and the
// report's exact counts, which cover only the prefix every run completes.
// wall_s and trials_per_s are scaled by the host speed factor (setup arrives
// scaled by its own); the report keeps the unit walls as measured.
func endToEndMetrics(units []unitResult, reference []time.Duration, prefix int, setup float64, rep *report, res *result) {
	var wall, busy time.Duration
	var trials int
	var mallocs, bytes uint64
	var walls []float64
	for _, u := range units {
		wall += u.Wall
		busy += u.Busy
		trials += u.Trials
		mallocs += u.Mallocs
		bytes += u.Bytes
		walls = append(walls, u.Wall.Seconds())
		res.Attempted += u.Attempted
		res.Failed += u.Failed
		rep.Problems = append(rep.Problems, u.Problems...)
	}
	if len(units) > 1 {
		a, b := units[0], units[1]
		if a.Stable != b.Stable {
			res.Failed++
			rep.Problems = append(rep.Problems, fmt.Sprintf("seed %d gave digest %s, then %s", a.Seed, a.Stable, b.Stable))
		} else if a.Digest != b.Digest {
			rep.Notes = append(rep.Notes, fmt.Sprintf("seed %d: issue attribution differs between two runs (%s, %s)", a.Seed, a.Digest, b.Digest))
		}
	}
	rep.Units = len(units)
	ws := summarize(walls)
	rep.UnitWall = &ws
	rep.Prefix = units[1:min(len(units), prefix+1)]
	for _, u := range rep.Prefix {
		rep.Spent.add(u.Spent)
	}
	var ref []float64
	for _, d := range reference {
		ref = append(ref, d.Seconds())
	}
	rs := summarize(ref)
	rep.Reference = &rs
	speed := hostSpeed(reference)
	rep.Speed = speed

	n := float64(trials)
	vals := map[string]float64{
		"setup_s":          setup,
		"wall_s":           wall.Seconds() / float64(len(units)) * speed,
		"trials_per_s":     ratio(n, busy.Seconds()*speed),
		"allocs_per_trial": ratio(float64(mallocs), n),
		"bytes_per_trial":  ratio(float64(bytes), n),
		"peak_rss_mb":      peakRSSMB(),
	}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = value{vals[m.Name], m.Unit}
	}
}

func printMetrics(w io.Writer, workload string, trace int, res result) {
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	fmt.Fprintf(w, "# %s (trace %d): %d operations attempted, %d failed\n", workload, trace, res.Attempted, res.Failed)
	for _, m := range defs {
		fmt.Fprintf(w, "%-40s %16.6g %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// childRun is one workload's report and result, read back from a child
// process.
type childRun struct {
	Report report `json:"report"`
	Result result `json:"result"`
}

// runChild runs one workload in its own process — obs is process-global
// and peak RSS must not accumulate across workloads — and parses the two
// JSON lines it ends with. A child that fails a check still reports.
func runChild(cfg config, workload string, trace int) (childRun, error) {
	var run childRun
	self, err := os.Executable()
	if err != nil {
		return run, err
	}
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace), "-out", cfg.out,
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := osexec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	var exit *osexec.ExitError
	if runErr != nil && !errors.As(runErr, &exit) {
		return run, runErr
	}
	var lines []string
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) < 2 {
		return run, fmt.Errorf("%s: child printed no result (%v)", workload, runErr)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &run.Report); err != nil {
		return run, fmt.Errorf("%s: report line: %w", workload, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.Result); err != nil {
		return run, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return run, nil
}

// runSet runs every workload once, sequentially, at the given trace
// setting.
func runSet(cfg config, trace int) (map[string]childRun, error) {
	set := make(map[string]childRun)
	for _, w := range workloads {
		run, err := runChild(cfg, w.name, trace)
		if err != nil {
			return nil, err
		}
		set[w.name] = run
	}
	return set, nil
}

// runAll runs the four untraced workloads, then the traced pass of each,
// and prints one document.
func runAll(cfg config, stdout io.Writer) error {
	untraced, err := runSet(cfg, 0)
	if err != nil {
		return err
	}
	traced, err := runSet(cfg, 1)
	if err != nil {
		return err
	}
	failed := 0
	for _, set := range []map[string]childRun{untraced, traced} {
		for name, run := range set {
			if !run.Result.Correct {
				failed++
				fmt.Fprintf(os.Stderr, "bench: %s failed: %v\n", name, run.Report.Problems)
			}
		}
	}
	for _, w := range workloads {
		printMetrics(stdout, w.name, 0, untraced[w.name].Result)
		printMetrics(stdout, w.name, 1, traced[w.name].Result)
	}
	doc := map[string]any{"header": newHeader(cfg), "end_to_end": untraced, "per_layer": traced}
	if err := printJSON(stdout, doc); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d runs failed a check", failed)
	}
	return nil
}
