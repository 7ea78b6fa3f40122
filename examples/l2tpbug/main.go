// l2tpbug reproduces the paper's Figure 1 end to end: the non-data-race
// order violation in the L2TP tunnel registration path (Table 2 issue #12,
// fixed upstream in 69e16d01d1de).
//
// The example builds the two sequential tests of Figure 1 by hand, profiles
// them from the boot snapshot, identifies the PMC between the writer's
// list_add_rcu publication and the reader's tunnel-list lookup, and hands
// it to Algorithm 2 as a scheduling hint. Within a few dozen interleaving
// trials the reader retrieves the half-initialized tunnel and the kernel
// panics on the null tunnel->sock — exactly the paper's ➊→➋→➌→➍ sequence.
package main

import (
	"fmt"
	"log"

	"snowboard"
	"snowboard/internal/detect"
	"snowboard/internal/kernel"
	"snowboard/internal/pmc"
)

// writerTest is Figure 1's Test 1:
//
//	r0 = socket(..., PX_PROTO_OL2TP)
//	r1 = socket(AF_INET, ...)
//	connect(r0, ...r1..., ...)
func writerTest() *snowboard.Prog {
	return &snowboard.Prog{Calls: []snowboard.Call{
		{Nr: kernel.SysSocketNr, Args: []snowboard.Arg{snowboard.Const(kernel.AFPppox), snowboard.Const(kernel.SockDgram), snowboard.Const(kernel.PxProtoOL2TP)}},
		{Nr: kernel.SysSocketNr, Args: []snowboard.Arg{snowboard.Const(kernel.AFInet), snowboard.Const(kernel.SockDgram), snowboard.Const(0)}},
		{Nr: kernel.SysConnectNr, Args: []snowboard.Arg{snowboard.ResultArg(0), snowboard.Const(1), snowboard.ResultArg(1)}},
	}}
}

// readerTest is Figure 1's Test 2 — the same plus sendmsg(r0, ...).
func readerTest() *snowboard.Prog {
	p := writerTest()
	p.Calls = append(p.Calls, snowboard.Call{
		Nr:   kernel.SysSendmsgNr,
		Args: []snowboard.Arg{snowboard.ResultArg(0), snowboard.Const(512)},
	})
	return p
}

func main() {
	env := snowboard.NewEnv(snowboard.V5_12_RC3)
	defer env.Close()

	writer, reader := writerTest(), readerTest()
	fmt.Println("Test 1 (writer):")
	fmt.Print(writer)
	fmt.Println("Test 2 (reader):")
	fmt.Print(reader)

	// Stage 1: profile both tests sequentially from the boot snapshot.
	var profiles []snowboard.Profile
	for i, p := range []*snowboard.Prog{writer, reader} {
		accs, df, res := env.Profile(p)
		if res.Crashed() {
			log.Fatalf("sequential profiling crashed: %v", res.Faults)
		}
		profiles = append(profiles, snowboard.Profile{TestID: i, Accesses: accs, DFLeader: df})
		fmt.Printf("profiled test %d: %d shared accesses\n", i+1, accs.Len())
	}

	// Stage 2: identify PMCs and pick the tunnel-list publication channel.
	set := snowboard.Identify(profiles)
	fmt.Printf("identified %d PMCs between the two tests\n", set.Len())
	var hint *snowboard.PMC
	for key := range set.Entries {
		if key.Write.Ins.Name() == "l2tp_tunnel_register:list_add_rcu" &&
			key.Read.Ins.Name() == "l2tp_tunnel_get:rcu_dereference_list" {
			h := key
			hint = &h
			break
		}
	}
	if hint == nil {
		log.Fatal("tunnel-list publication PMC not identified")
	}
	fmt.Printf("scheduling hint: %s\n\n", hint)

	// Stage 4: explore interleavings with the PMC as the hint.
	x := &snowboard.Explorer{
		Env:       env,
		Trials:    256,
		Seed:      42,
		Mode:      snowboard.ModeSnowboard,
		Detect:    detect.DefaultOptions(),
		KnownPMCs: set,
	}
	out := x.Explore(snowboard.ConcurrentTest{
		Writer: writer, Reader: reader, Hint: hint, Pair: pmc.Pair{Writer: 0, Reader: 1},
	})

	var panicIssue *snowboard.Issue
	for i := range out.Issues {
		if out.Issues[i].Kind == detect.KindPanic {
			panicIssue = &out.Issues[i]
		}
	}
	if panicIssue == nil {
		log.Fatalf("panic not reproduced in %d trials (issues: %v)", out.Trials, out.Issues)
	}
	fmt.Printf("kernel panic reproduced on trial %d:\n", out.TrialOf(*panicIssue))
	fmt.Printf("  %s\n", panicIssue.Desc)
	fmt.Printf("  attributed to Table 2 issue #%d\n", panicIssue.BugID)
	fmt.Printf("  PMC channel first exercised on trial %d\n\n", out.ExercisedTrial)

	// §6: deterministic reproduction and post-mortem diagnosis. The
	// recorded trial state replays the identical crash on demand, and the
	// diagnosis report reconstructs Figure 1's interleaving diagram.
	if out.Repro == nil {
		log.Fatal("no reproduction state recorded")
	}
	var replayTr snowboard.Trace
	res := snowboard.Replay(env, snowboard.ConcurrentTest{Writer: writer, Reader: reader, Hint: hint}, out.Repro, &replayTr)
	if !res.Crashed() {
		log.Fatal("replay did not reproduce the crash")
	}
	fmt.Println("replay reproduced the crash deterministically; diagnosis:")
	fmt.Println(snowboard.Diagnose(&replayTr, hint, []snowboard.Issue{*panicIssue}))
}
