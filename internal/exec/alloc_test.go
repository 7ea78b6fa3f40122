package exec_test

import (
	"testing"

	"snowboard/internal/exec"
	"snowboard/internal/fuzz"
	"snowboard/internal/kernel"
	"snowboard/internal/trace"
)

// TestSequentialRunAllocBudget is the allocation gate on what the first two
// stages repeat most: a warm traced RunSequential of a generated program
// borrows its Proc, Thread, body, argument and return slices from the Env,
// so what it allocates is what the guest prints (0 measured for two- to
// seven-call programs).
func TestSequentialRunAllocBudget(t *testing.T) {
	env := exec.NewEnv(kernel.Config{Version: kernel.V5_12_RC3})
	defer env.Close()
	g := fuzz.NewGenerator(17)
	var tr trace.Trace
	checked, most := 0, 0.0
	for checked < 20 {
		p := g.Generate()
		if res := env.RunSequential(p, &tr); len(res.Console) > 0 { // also warms the trace
			continue
		}
		checked++
		allocs := testing.AllocsPerRun(10, func() { env.RunSequential(p, &tr) })
		if allocs > 1 {
			t.Fatalf("a warm RunSequential of a %d-call program allocates %.0f times, budget 1:\n%s", len(p.Calls), allocs, p)
		}
		most = max(most, allocs)
	}
	t.Logf("a warm RunSequential allocates at most %.0f times over %d programs", most, checked)
}
