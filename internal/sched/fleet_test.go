package sched

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"snowboard/internal/cover"
	"snowboard/internal/detect"
	"snowboard/internal/exec"
	"snowboard/internal/kernel"
)

// fleetOutcomes runs the same exploration batch across a fleet of the
// given width and returns the outcomes plus merged coverage size.
func fleetOutcomes(t *testing.T, workers int) ([]Outcome, int) {
	t.Helper()
	env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	set, key := identifyL2TP(t, env)

	template := Explorer{
		Trials:    6,
		Mode:      ModeSnowboard,
		Detect:    detect.DefaultOptions(),
		KnownPMCs: set,
		Coverage:  cover.New(),
	}
	envs := []*exec.Env{env}
	for len(envs) < workers {
		envs = append(envs, env.Clone())
	}
	fleet := NewFleet(template, envs, func(e *exec.Env) []string { return e.K.FsckHost() })

	var tests []ConcurrentTest
	var seeds []int64
	for i := 0; i < 6; i++ {
		hint := key
		tests = append(tests, ConcurrentTest{Writer: l2tpWriterProg(), Reader: l2tpReaderProg(), Hint: &hint})
		seeds = append(seeds, int64(1000+i*17))
	}
	outs := fleet.ExploreAll(tests, seeds)
	return outs, template.Coverage.Len()
}

// A fleet must produce the same outcomes regardless of its width: each
// test's exploration is a pure function of (test, seed).
func TestFleetOutcomesWorkerCountInvariant(t *testing.T) {
	o1, c1 := fleetOutcomes(t, 1)
	o4, c4 := fleetOutcomes(t, 4)
	if len(o1) != len(o4) {
		t.Fatalf("outcome counts differ: %d vs %d", len(o1), len(o4))
	}
	for i := range o1 {
		a, b := o1[i], o4[i]
		// NewCoverPairs depends on which worker's accumulator saw a pair
		// first; everything else must match exactly.
		a.NewCoverPairs, b.NewCoverPairs = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("outcome %d differs across worker counts:\n1 worker: %+v\n4 workers: %+v", i, a, b)
		}
	}
	if c1 != c4 || c1 == 0 {
		t.Fatalf("merged coverage differs: %d (1 worker) vs %d (4 workers)", c1, c4)
	}
	found := false
	for _, o := range o1 {
		if len(o.Issues) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no issue surfaced in any outcome; exploration lost its teeth")
	}
}

// contended returns, per function accepted by owned, how many contention
// events of the mutex profile have it as their innermost such frame.
func contended(t *testing.T, owned func(fn string) bool) map[string]int64 {
	t.Helper()
	records := make([]runtime.BlockProfileRecord, 256)
	for {
		n, ok := runtime.MutexProfile(records)
		if ok {
			records = records[:n]
			break
		}
		records = make([]runtime.BlockProfileRecord, 2*n)
	}
	out := make(map[string]int64)
	for _, r := range records {
		frames := runtime.CallersFrames(r.Stack())
		for more := true; more; {
			var f runtime.Frame
			if f, more = frames.Next(); owned(f.Function) {
				out[f.Function] += r.Count
				break
			}
		}
	}
	return out
}

// TestNoProcessWideLockUnderTrial is the gate on the property that lets two
// workers run twice the trials of one: once warm, a trial takes no lock
// that another worker's trial takes too. Two workers that have each seen
// every test explore the batch again side by side with every mutex
// contention event profiled; none may fall under internal/trace, vm, detect
// or cover. (Each worker's coverage accumulator has a lock of its own, taken
// once a trial by that worker alone.) When interned locksets were extended
// and probed under one process-wide mutex at every guest lock operation,
// this batch produced such events by the hundred.
func TestNoProcessWideLockUnderTrial(t *testing.T) {
	env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	set, tests := realTests(t, env, 3)
	template := Explorer{Trials: 8, Mode: ModeSnowboard, Detect: detect.DefaultOptions(),
		KnownPMCs: set, Coverage: cover.New(), TrackSegments: true}
	envs := []*exec.Env{env, env.Clone()}
	defer envs[0].Close()
	defer envs[1].Close()
	fleet := NewFleet(template, envs, func(e *exec.Env) []string { return e.K.FsckHost() })
	seeds := make([]int64, len(tests))
	for i := range seeds {
		seeds[i] = 3000 + int64(i)
	}
	for _, w := range fleet.workers { // warm: every worker meets every lockset, site and region
		for i, ct := range tests {
			w.Seed = seeds[i]
			w.Explore(ct)
		}
	}

	defer runtime.SetMutexProfileFraction(runtime.SetMutexProfileFraction(1))
	// The profile must be able to see a contended lock at all: release one
	// here, under this function, that a second goroutine is waiting for.
	here := func(fn string) bool {
		return strings.HasPrefix(fn, "snowboard/internal/sched.TestNoProcessWideLockUnderTrial")
	}
	var mu sync.Mutex
	for try := 0; len(contended(t, here)) == 0; try++ {
		if try == 50 {
			t.Fatal("the mutex profile never showed a lock released while another goroutine waited for it")
		}
		mu.Lock()
		started, done := make(chan struct{}), make(chan struct{})
		go func() {
			close(started)
			mu.Lock()
			mu.Unlock()
			close(done)
		}()
		<-started
		time.Sleep(time.Millisecond) // by now it waits
		mu.Unlock()
		<-done
	}

	guarded := func(fn string) bool {
		for _, pkg := range []string{"trace", "vm", "detect", "cover"} {
			if strings.HasPrefix(fn, "snowboard/internal/"+pkg+".") {
				return true
			}
		}
		return false
	}
	before := contended(t, guarded)
	for round := 0; round < 3; round++ {
		fleet.ExploreAll(tests, seeds)
	}
	for fn, n := range contended(t, guarded) {
		if n > before[fn] {
			t.Errorf("%d contended lock releases under %s while two workers ran warm trials", n-before[fn], fn)
		}
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Log("one CPU: the workers never ran side by side, so this run could not have failed")
	}
}
