package snowboard_test

import (
	"fmt"
	"sort"

	"snowboard"
	"snowboard/internal/detect"
	"snowboard/internal/kernel"
)

// ExampleRun executes the full four-stage pipeline with a small budget and
// prints which of the paper's Table 2 issues were found.
func ExampleRun() {
	opts := snowboard.DefaultOptions()
	opts.Seed = 1
	opts.FuzzBudget = 300
	opts.CorpusCap = 80
	opts.TestBudget = 40
	opts.Trials = 12

	report, err := snowboard.Run(opts)
	if err != nil {
		panic(err)
	}
	ids := report.BugIDs()
	sort.Ints(ids)
	// The ubiquitous benign slab-counter race (#13) is found by every
	// configuration, so it is a stable sentinel for the example.
	found13 := false
	for _, id := range ids {
		if id == 13 {
			found13 = true
		}
	}
	fmt.Println("found issue #13:", found13)
	// Output: found issue #13: true
}

// ExampleExplorer_Explore builds the paper's Figure 1 concurrent test by
// hand, identifies the PMC between the tunnel publication and the lookup,
// and explores interleavings until the null dereference fires.
func ExampleExplorer_Explore() {
	env := snowboard.NewEnv(snowboard.V5_12_RC3)
	defer env.Close()

	writer := &snowboard.Prog{Calls: []snowboard.Call{
		{Nr: kernel.SysSocketNr, Args: []snowboard.Arg{snowboard.Const(kernel.AFPppox), snowboard.Const(kernel.SockDgram), snowboard.Const(kernel.PxProtoOL2TP)}},
		{Nr: kernel.SysSocketNr, Args: []snowboard.Arg{snowboard.Const(kernel.AFInet), snowboard.Const(kernel.SockDgram), snowboard.Const(0)}},
		{Nr: kernel.SysConnectNr, Args: []snowboard.Arg{snowboard.ResultArg(0), snowboard.Const(1), snowboard.ResultArg(1)}},
	}}
	reader := writer.Clone()
	reader.Calls = append(reader.Calls, snowboard.Call{
		Nr: kernel.SysSendmsgNr, Args: []snowboard.Arg{snowboard.ResultArg(0), snowboard.Const(512)},
	})

	var profiles []snowboard.Profile
	for i, p := range []*snowboard.Prog{writer, reader} {
		accs, df, _ := env.Profile(p)
		profiles = append(profiles, snowboard.Profile{TestID: i, Accesses: accs, DFLeader: df})
	}
	set := snowboard.Identify(profiles)

	var hint *snowboard.PMC
	for key := range set.Entries {
		if key.Write.Ins.Name() == "l2tp_tunnel_register:list_add_rcu" &&
			key.Read.Ins.Name() == "l2tp_tunnel_get:rcu_dereference_list" {
			k := key
			hint = &k
			break
		}
	}

	x := &snowboard.Explorer{
		Env: env, Trials: 512, Seed: 1,
		Mode: snowboard.ModeSnowboard, Detect: detect.DefaultOptions(), KnownPMCs: set,
	}
	out := x.Explore(snowboard.ConcurrentTest{Writer: writer, Reader: reader, Hint: hint})

	for _, is := range out.Issues {
		if is.BugID == 12 && is.Kind == detect.KindPanic {
			fmt.Println("reproduced the Figure 1 null dereference")
		}
	}
	// Output: reproduced the Figure 1 null dereference
}

// ExampleTable2 lists the issue catalogue carried by the simulated kernel.
func ExampleTable2() {
	harmful := 0
	for _, b := range snowboard.Table2() {
		if b.Harmful {
			harmful++
		}
	}
	fmt.Printf("%d known issues, %d harmful\n", len(snowboard.Table2()), harmful)
	// Output: 17 known issues, 12 harmful
}

// ExampleStrategies prints the Table 1 clustering strategies.
func ExampleStrategies() {
	for _, s := range snowboard.Strategies() {
		fmt.Println(s.Name)
	}
	// Output:
	// S-FULL
	// S-CH
	// S-CH-NULL
	// S-CH-UNALIGNED
	// S-CH-DOUBLE
	// S-INS
	// S-INS-PAIR
	// S-MEM
}
