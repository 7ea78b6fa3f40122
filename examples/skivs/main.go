// skivs reproduces the §5.4 scheduler comparison: how many interleaving
// trials Snowboard's PMC-hinted scheduler (Algorithm 2) needs to expose
// the Figure 1 bug, versus the SKI-style baseline that yields on
// instruction matches regardless of memory targets, versus an unguided
// random walk.
//
// The paper measures 9.76 interleavings/test for Snowboard against 826.29
// for SKI (84x). The absolute numbers here differ (the substrate is a
// simulator), but the ordering — Snowboard ≪ SKI ≤ random — should hold.
package main

import (
	"fmt"
	"log"

	"snowboard"
	"snowboard/internal/detect"
	"snowboard/internal/kernel"
)

func tests() (*snowboard.Prog, *snowboard.Prog) {
	writer := &snowboard.Prog{Calls: []snowboard.Call{
		{Nr: kernel.SysSocketNr, Args: []snowboard.Arg{snowboard.Const(kernel.AFPppox), snowboard.Const(kernel.SockDgram), snowboard.Const(kernel.PxProtoOL2TP)}},
		{Nr: kernel.SysSocketNr, Args: []snowboard.Arg{snowboard.Const(kernel.AFInet), snowboard.Const(kernel.SockDgram), snowboard.Const(0)}},
		{Nr: kernel.SysConnectNr, Args: []snowboard.Arg{snowboard.ResultArg(0), snowboard.Const(1), snowboard.ResultArg(1)}},
	}}
	reader := writer.Clone()
	reader.Calls = append(reader.Calls, snowboard.Call{
		Nr:   kernel.SysSendmsgNr,
		Args: []snowboard.Arg{snowboard.ResultArg(0), snowboard.Const(512)},
	})
	return writer, reader
}

func main() {
	const rounds = 10
	const maxTrials = 2048

	run := func(mode string) float64 {
		total := 0
		for seed := int64(1); seed <= rounds; seed++ {
			env := snowboard.NewEnv(snowboard.V5_12_RC3)
			writer, reader := tests()
			var profiles []snowboard.Profile
			for i, p := range []*snowboard.Prog{writer, reader} {
				accs, df, res := env.Profile(p)
				if res.Crashed() {
					log.Fatalf("profiling crashed: %v", res.Faults)
				}
				profiles = append(profiles, snowboard.Profile{TestID: i, Accesses: accs, DFLeader: df})
			}
			set := snowboard.Identify(profiles)
			var hint *snowboard.PMC
			for key := range set.Entries {
				if key.Write.Ins.Name() == "l2tp_tunnel_register:list_add_rcu" &&
					key.Read.Ins.Name() == "l2tp_tunnel_get:rcu_dereference_list" {
					h := key
					hint = &h
				}
			}
			if hint == nil {
				log.Fatal("hint PMC not found")
			}
			x := &snowboard.Explorer{Env: env, Trials: maxTrials, Seed: seed * 7919, Detect: detect.DefaultOptions(), KnownPMCs: set}
			switch mode {
			case "snowboard":
				x.Mode = snowboard.ModeSnowboard
			case "ski":
				x.Mode = snowboard.ModeSKI
			case "random-walk":
				x.Mode = snowboard.ModeRandomWalk
			}
			out := x.Explore(snowboard.ConcurrentTest{Writer: writer, Reader: reader, Hint: hint})
			env.Close()
			n := maxTrials + 1
			for _, is := range out.Issues {
				if is.BugID == 12 && is.Kind == detect.KindPanic {
					n = out.TrialOf(is) + 1
				}
			}
			total += n
		}
		return float64(total) / rounds
	}

	fmt.Println("mean interleaving trials to expose issue #12 (Figure 1 bug):")
	for _, mode := range []string{"snowboard", "ski", "random-walk"} {
		fmt.Printf("  %-12s %.1f\n", mode, run(mode))
	}
	fmt.Printf("\n(paper, on real Linux: snowboard 9.76 vs SKI 826.29 interleavings/test)\n")
}
