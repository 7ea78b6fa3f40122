// Package snowboard is a from-scratch Go reproduction of "Snowboard:
// Finding Kernel Concurrency Bugs through Systematic Inter-thread
// Communication Analysis" (SOSP 2021).
//
// Snowboard finds kernel concurrency bugs by jointly exploring test inputs
// and thread interleavings: it profiles the memory accesses of sequential
// tests run from a fixed kernel snapshot, pairs write/read accesses that
// overlap with differing values into potential memory communications
// (PMCs), clusters and prioritizes those PMCs uncommon-first, and executes
// the chosen test pairs concurrently with the PMC as a scheduling hint.
//
// Because the paper's substrate (a customized QEMU/SKI hypervisor running
// Linux) is not reproducible as a pure Go library, this package ships its
// own deterministic substrate: a coroutine virtual machine with full
// memory-access interposition and a miniature kernel — twelve subsystems
// in simulated guest memory carrying the seventeen concurrency issues of
// the paper's Table 2. See DESIGN.md for the substitution rationale and
// the per-experiment index.
//
// # Quick start
//
//	opts := snowboard.DefaultOptions()
//	report, err := snowboard.Run(opts)
//	if err != nil { ... }
//	fmt.Println(report)          // a Table 3-style row
//	fmt.Println(report.BugIDs()) // Table 2 issue numbers found
//
// For finer control, build a Pipeline and run the four stages separately,
// or construct Prog values by hand and drive an Explorer directly — see
// the examples/ directory.
package snowboard

import (
	"snowboard/internal/cluster"
	"snowboard/internal/core"
	"snowboard/internal/corpus"
	"snowboard/internal/detect"
	"snowboard/internal/diagnose"
	"snowboard/internal/exec"
	"snowboard/internal/kernel"
	"snowboard/internal/pmc"
	"snowboard/internal/sched"
	"snowboard/internal/trace"
)

// Version identifies the simulated kernel build under test.
type Version = kernel.Version

// Simulated kernel versions under test (§5.1 of the paper).
const (
	V5_3_10   = kernel.V5_3_10
	V5_12_RC3 = kernel.V5_12_RC3
)

// ParseVersion resolves a version string (a -version flag) to one of the
// simulated kernels, rejecting anything else.
func ParseVersion(s string) (Version, error) { return kernel.ParseVersion(s) }

// Pipeline configuration and reporting.
type (
	// Options configures a full pipeline run.
	Options = core.Options
	// Report is the outcome of a run: a Table 3-style row plus accuracy
	// counters and stage timings.
	Report = core.Report
	// Method is one concurrent-test generation method (a Table 3 row):
	// one of the eight Table 1 clustering strategies, Random S-INS-PAIR,
	// Random pairing, or Duplicate pairing.
	Method = core.Method
	// Pipeline exposes the four stages individually.
	Pipeline = core.Pipeline
)

// Test representation.
type (
	// Prog is a sequential test: an ordered list of system calls with
	// syzkaller-style resource threading.
	Prog = corpus.Prog
	// Call is one system call of a Prog.
	Call = corpus.Call
	// Arg is one syscall argument.
	Arg = corpus.Arg
)

// PMC analysis.
type (
	// PMC is a potential memory communication (§2.2).
	PMC = pmc.PMC
	// PMCSet is the identified PMC database.
	PMCSet = pmc.Set
	// Profile is the shared-access set of one sequential test.
	Profile = pmc.Profile
	// Strategy is a Table 1 clustering strategy.
	Strategy = cluster.Strategy
)

// Execution and detection.
type (
	// Env is a booted simulated kernel plus its boot snapshot.
	Env = exec.Env
	// Result summarizes one execution.
	Result = exec.Result
	// Explorer executes concurrent tests per Algorithm 2.
	Explorer = sched.Explorer
	// ConcurrentTest is two sequential tests plus a PMC scheduling hint.
	ConcurrentTest = sched.ConcurrentTest
	// ExploreOutcome summarizes the exploration of one concurrent test.
	ExploreOutcome = sched.Outcome
	// Issue is one bug-oracle finding.
	Issue = detect.Issue
	// KnownBug is a row of the paper's Table 2.
	KnownBug = detect.KnownBug
	// Trace is an ordered memory-access trace.
	Trace = trace.Trace
)

// ReproState pins one bug-exposing trial for deterministic replay.
type ReproState = sched.ReproState

// Exploration modes for the Explorer.
const (
	ModeSnowboard  = sched.ModeSnowboard
	ModeSKI        = sched.ModeSKI
	ModeRandomWalk = sched.ModeRandomWalk
)

// Run executes the full four-stage pipeline.
func Run(opts Options) (*Report, error) { return core.Run(opts) }

// DefaultOptions returns a laptop-scale configuration using S-INS-PAIR,
// the strategy the paper's exhaustive study found most effective.
func DefaultOptions() Options { return core.DefaultOptions() }

// NewPipeline boots a simulated kernel and prepares stage-by-stage runs.
// Close the Pipeline when done with it (Run does so itself).
func NewPipeline(opts Options) *Pipeline { return core.NewPipeline(opts) }

// OpenPipeline is NewPipeline plus, when opts.StateDir is set, the artifact
// store rooted there, attached so every stage memoizes through it.
func OpenPipeline(opts Options) (*Pipeline, error) { return core.OpenPipeline(opts) }

// Methods lists the eleven generation methods of the paper's Table 3.
func Methods() []Method { return core.Methods() }

// MethodByName resolves a generation method ("S-INS-PAIR", "Random
// pairing", …).
func MethodByName(name string) (Method, bool) { return core.MethodByName(name) }

// Strategies lists the eight Table 1 clustering strategies.
func Strategies() []Strategy { return cluster.Strategies }

// NewEnv boots a fresh simulated kernel of the given version and takes the
// fixed snapshot all tests start from. Close the Env when done with it: its
// machine keeps a parked coroutine per guest thread slot between runs.
func NewEnv(version kernel.Version) *Env {
	return exec.NewEnv(kernel.Config{Version: version})
}

// Identify runs Algorithm 1 (PMC identification) over sequential test
// profiles.
func Identify(profiles []Profile) *PMCSet {
	return pmc.Identify(profiles, pmc.DefaultOptions())
}

// Table2 returns the catalogue of known issues carried by the simulated
// kernel, mirroring the paper's Table 2.
func Table2() []KnownBug { return detect.Table2 }

// Const builds a literal syscall argument.
func Const(v uint64) Arg { return corpus.Const(v) }

// Result builds a resource-reference argument (r0, r1, … of earlier calls).
func ResultArg(ref int) Arg { return corpus.Result(ref) }

// Replay deterministically re-executes a bug-exposing trial recorded in an
// exploration outcome's Repro state (§6 "Deterministic Reproduction").
func Replay(env *Env, ct ConcurrentTest, st *ReproState, tr *Trace) Result {
	return sched.Replay(env, ct, st, tr)
}

// Diagnose renders the two-column interleaving report around the PMC for a
// bug-exposing trial (§6 "Bug Diagnosis"), in the style of the paper's
// Figure 1.
func Diagnose(tr *Trace, hint *PMC, issues []Issue) string {
	return diagnose.Render(tr, hint, issues, diagnose.DefaultOptions())
}
