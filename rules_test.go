package snowboard_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	pathpkg "path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestDesignRules holds the design rules the source tree must keep. Each
// subtest is one rule: a function from the parsed tree to its violations,
// each naming file:line. Unless a rule says otherwise it reads the non-test
// Go files outside bench/, which is its own module and times old entry
// points on purpose.
func TestDesignRules(t *testing.T) {
	tr := loadTree(t)
	for _, r := range designRules {
		t.Run(r.name, func(t *testing.T) {
			for _, v := range r.check(tr) {
				t.Error(v)
			}
		})
	}
}

// TestDesignRulesCatchMutations keeps every rule's teeth: each mutation
// of the tree must trip its rule.
func TestDesignRulesCatchMutations(t *testing.T) {
	tr := loadTree(t)
	for _, r := range designRules {
		t.Run(r.name, func(t *testing.T) {
			if len(r.mutations) == 0 {
				t.Fatal("rule has no mutation")
			}
			for _, m := range r.mutations {
				if len(r.check(tr.with(t, m))) == 0 {
					t.Errorf("mutation of %s passes the rule: %q", m.path, m.src)
				}
			}
		})
	}
}

// A designRule is one design rule and the mutations that must trip it.
type designRule struct {
	name      string
	check     func(*tree) []string
	mutations []mutation
}

// A mutation overlays source on the file at path: source starting with a
// package clause replaces the file (or adds it), anything else is appended
// to it.
type mutation struct{ path, src string }

var designRules = []designRule{
	{"nothing_hashed_under_a_guest_access", nothingHashedUnderAGuestAccess, []mutation{
		{"internal/vm/memory.go", "\nvar pageOf map[uint64]*page\n"},
		{"internal/vm/thread.go", "\nfunc held() any { return make(map[int]bool) }\n"},
	}},
	{"nothing_hashed_when_the_scheduler_is_asked", nothingHashedWhenTheSchedulerIsAsked, []mutation{
		{"internal/sched/flags.go", "package sched\n\nvar flagged map[sig]bool\n"},
		{"internal/sched/policy.go", "\ntype SnowboardPolicy struct{ seen map[int]bool }\n"},
		{"internal/sched/policy.go", "\nfunc (p *SnowboardPolicy) OnAccess() bool { return len(map[int]int{}) > 0 }\n"},
	}},
	{"nothing_hashed_per_access_after_the_trial", nothingHashedPerAccessAfterTheTrial, []mutation{
		{"internal/cover/walk.go", "\nvar pairCount map[uint64]int\n"},
		{"internal/sched/slots.go", "package sched\n\nimport tr \"snowboard/internal/trace\"\n\nvar last tr.Shadow[int32]\n"},
		{"internal/sched/slots.go", "package sched\n\nfunc slot(x *Explorer, a uint64) *int32 { return x.sites.Slot(a) }\n"},
		{"internal/sched/explore.go", "\nfunc (x *Explorer) Explore() { x.walk.Fold(); x.cov.AddTrace(nil) }\n"},
	}},
	{"nothing_hashed_or_allocated_per_sequential_execution", nothingHashedOrAllocatedPerSequentialExecution, []mutation{
		{"internal/cover/edges.go", "\nvar edgeCount map[uint64]int\n"},
		{"internal/cover/edges.go", "package cover\n\nimport \"sync\"\n\nvar edgesMu sync.Mutex\n"},
		{"internal/exec/exec.go", "\nfunc procBody() {}\n"},
		{"internal/exec/exec.go", "\nfunc rets(n int) []int64 { return make([]int64, n) }\n"},
		{"internal/fuzz/memo.go", "package fuzz\n\nimport enc \"encoding/json\"\n\nvar key, _ = enc.Marshal(nil)\n"},
		{"internal/fuzz/memo.go", "package fuzz\n\nfunc literalArgs() {}\n"},
		{"internal/fuzz/memo.go", "package fuzz\n\nimport \"snowboard/internal/corpus\"\n\nfunc args() []corpus.Arg { return []corpus.Arg{{}} }\n"},
		{"internal/fuzz/memo.go", "package fuzz\n\nimport \"snowboard/internal/corpus\"\n\nfunc args(n int) []corpus.Arg { return make([]corpus.Arg, n) }\n"},
		{"internal/fuzz/memo.go", "package fuzz\n\nimport \"snowboard/internal/corpus\"\n\nfunc key(p *corpus.Prog) uint64 { return p.Hash() }\n"},
		{"internal/fuzz/memo.go", "package fuzz\n\nimport \"snowboard/internal/cover\"\n\nvar seen = cover.NewEdges()\n"},
		{"internal/fuzz/memo.go", "package fuzz\n\nimport \"snowboard/internal/corpus\"\n\nfunc keep(p *corpus.Prog) *corpus.Prog { return p.Clone() }\n"},
	}},
	{"one_definition_of_stage_4", oneDefinitionOfStage4, []mutation{
		// gofmt spaces this product, so a text match for "*1009" misses it.
		{"internal/core/seed.go", "package core\n\nfunc jobSeed(id int64) int64 { return id * 1009 }\n"},
		{"internal/core/seed.go", "package core\n\nfunc JobSeed() {}\n"},
		{"internal/core/local.go", "package core\n\nimport \"snowboard/internal/sched\"\n\nvar local = sched.Explorer{}\n"},
		{"internal/core/worker.go", "\nvar second = sched.Explorer{}\n"},
		{"cmd/sbexec/turn.go", "package main\n\ntype leaseKeeper struct{}\n"},
	}},
	{"one_template", oneTemplate, []mutation{
		{"internal/core/local.go", "package core\n\nimport \"snowboard/internal/sched\"\n\nfunc localTemplate() sched.Explorer { return sched.Explorer{TrackSegments: true} }\n"},
		{"internal/core/pipeline.go", "\nfunc (p *Pipeline) localExplorer() {}\n"},
		{"internal/pmc/subset.go", "package pmc\n\nfunc NewSubset(s *Set) []uint64 { return nil }\n"},
		{"internal/sched/explore.go", "\ntype Explorer struct{ Planned []int }\n"},
	}},
	{"one_identification_engine", oneIdentificationEngine, []mutation{
		{"internal/pmc/engine.go", "package pmc\n\ntype writeRec struct{}\n"},
		{"internal/pmc/pmc.go", "\nfunc IdentifyParallel() { identify() }\n"},
	}},
	{"one_thread_handoff", oneThreadHandoff, []mutation{
		// A text match for "go func" misses this goroutine.
		{"internal/vm/machine.go", "\nfunc (m *Machine) spin(f func()) { go f() }\n"},
		{"internal/vm/vcpu.go", "\ntype handoff struct{ resume chan Event }\n"},
	}},
	{"no_lockset_per_access", noLocksetPerAccess, []mutation{
		{"internal/vm/thread.go", "\nvar held trace.LockSet\n"},
		{"internal/vm/locks.go", "package vm\n\nfunc (t *Thread) Unlock(a Addr) { t.m.lockWith(0, a) }\n"},
		{"internal/vm/locks.go", "package vm\n\nimport tr \"snowboard/internal/trace\"\n\nfunc (t *Thread) dropLock(a Addr) { t.forget(a) }\n\nfunc (t *Thread) forget(a Addr) { tr.InternLocks(nil) }\n"},
	}},
	{"one_address_table_after_the_trial", oneAddressTableAfterTheTrial, []mutation{
		{"bench/shadow.go", "package main\n\ntype ByteShadow struct{}\n"},
	}},
	{"one_repro_format_no_unset_options", oneReproFormatNoUnsetOptions, []mutation{
		{"cmd/sbrepro/flags.go", "package main\n\nconst flagName = \"repro-dir\"\n"},
	}},
	{"one_stage_memo_one_pipeline_shape", oneStageMemoOnePipelineShape, []mutation{
		{"internal/core/pipeline.go", "\nfunc (p *Pipeline) save() { p.store.PutStage(\"k\", nil) }\n"},
		{"internal/core/campaign.go", "\nfunc (c *Campaign) save(st *store.Store) { st.Put(store.KindCorpus, nil) }\n"},
		{"internal/obs/restore.go", "package obs\n\nfunc RestoreCounters() {}\n"},
		// The streamed shape's names are split here so this file does not hold them.
		{"internal/core/shape_test.go", "package core\n\nfunc Stream" + "Campaign() {}\n"},
	}},
	// The retired names are split so that this file does not hold them.
	{"stages_2_3_are_recomputed", stagesTwoThreeAreRecomputed, []mutation{
		{"internal/core/state.go", "\nconst identifyBatchSize = 16\n"},
		{"internal/core/state.go", "\nfunc (p *Pipeline) profile" + "Key() {}\n"},
	}},
	{"one_jsonl_stream_nothing_unread", oneJSONLStreamNothingUnread, []mutation{
		{"internal/obs/tracer.go", "package obs\n\nimport (\n\t\"encoding/json\"\n\t\"io\"\n)\n\nfunc spans(w io.Writer) *json.Encoder { return json.NewEncoder(w) }\n"},
		{"cmd/sbd/vars.go", "package main\n\nimport _ \"expvar\"\n"},
	}},
	{"one_way_to_serve_a_queue", oneWayToServeAQueue, []mutation{
		{"internal/queue/net.go", "\ntype Server struct{ Reg *Registry }\n"},
		{"internal/queue/wait.go", "package queue\n\nimport \"sync\"\n\nvar ready sync.Cond\n"},
		{"internal/queue/wait.go", "package queue\n\nfunc (q *Queue) Lease() {}\n"},
		{"internal/queue/wait.go", "package queue\n\nconst opPush = \"push\"\n"},
		{"internal/queue/wait.go", "package queue\n\nconst leaseHist = \"snowboard_queue_lease_duration_ns\"\n"},
	}},
	{"stage_4_waits_on_its_queue", stage4WaitsOnItsQueue, []mutation{
		{"internal/core/worker.go", "\nfunc (p *Pipeline) straggle() { time.Sleep(5 * time.Millisecond) }\n"},
		{"cmd/snowboard/main.go", "\nfunc await(c *core.Campaign) {\n\tfor c.Status().Expected == 0 {\n\t\ttime.Sleep(10 * time.Millisecond)\n\t}\n}\n"},
		// The alias hides this call from a text match for "time.Sleep".
		{"internal/core/nap.go", "package core\n\nimport t \"time\"\n\nfunc nap() { t.Sleep(t.Millisecond) }\n"},
		{"examples/distributed/main.go", "\nfunc poll() { time.Sleep(5 * time.Millisecond) }\n"},
	}},
	{"one_coordinator", oneCoordinator, []mutation{
		{"internal/core/fold.go", "package core\n\nfunc fold(b *batch) { b.finish(nil, nil) }\n"},
		{"internal/core/campaign.go", "\nfunc (c *Campaign) push(p *Pipeline) { p.pushBatch(c.q, nil, nil) }\n"},
		{"cmd/snowboard/serve.go", "package main\n\nimport \"snowboard/internal/queue\"\n\nvar _, _ = queue.Serve(nil, \"\")\n"},
	}},
	{"one_batch_value", oneBatchValue, []mutation{
		{"internal/core/pipeline.go", "\ntype Pipeline struct{ folding *batch }\n"},
		{"internal/core/pipeline.go", "\ntype Pipeline struct{ err error }\n"},
		{"internal/core/distributed.go", "\nfunc (p *Pipeline) FoldSettled(r *Report, results []queue.JobResult) error { return nil }\n"},
	}},
	{"one_stage_4_driver", oneStage4Driver, []mutation{
		// The alias hides this call from a text match for "sched.NewFleet".
		{"internal/core/fleet.go", "package core\n\nimport s \"snowboard/internal/sched\"\n\nvar fleet = s.NewFleet(s.Explorer{}, nil, nil)\n"},
		{"internal/core/fleet.go", "package core\n\nimport \"snowboard/internal/sched\"\n\nfunc all(f *sched.Fleet) { f.ExploreAll(nil, nil) }\n"},
	}},
	{"one_spec_per_front_door", oneSpecPerFrontDoor, []mutation{
		{"cmd/sbprofile/main.go", "package main\n\nimport \"flag\"\n\nvar fuzzN = flag.Int(\"fuzz\", 400, \"sequential fuzzing executions\")\n"},
		{"cmd/sbd/budget.go", "package main\n\nimport \"flag\"\n\nfunc budget(fs *flag.FlagSet, n *int) { fs.IntVar(n, \"trials\", 16, \"\") }\n"},
		{"cmd/snowboard/opts.go", "package main\n\nimport \"snowboard\"\n\nvar opts = snowboard.DefaultOptions()\n"},
		{"cmd/snowboard/opts.go", "package main\n\nimport \"snowboard/internal/core\"\n\nvar opts = core.Options{Seed: 1}\n"},
	}},
	{"one_frame_each_way_per_turn", oneFrameEachWayPerTurn, []mutation{
		{"internal/queue/net.go", "\nfunc (s *Server) serveOp(op string) {\n\tswitch op {\n\tcase \"lease\", \"report\":\n\t}\n}\n"},
		{"internal/core/keep_test.go", "package core\n\nfunc init() { keepLease(nil) }\n"},
		{"internal/core/worker.go", "\nfunc (w *Worker) Do(lsr Leaser, l queue.Lease) {}\n"},
	}},
	{"one_join_loop", oneJoinLoop, []mutation{
		{"cmd/sbexec/main.go", "\nfunc lease(c *queue.Client) { c.LeaseN(nil, 1) }\n"},
		{"examples/distributed/main.go", "\nfunc turn(c *queue.Client) { c.LeaseN(nil, core.TurnJobs) }\n"},
		{"internal/core/loop.go", "package core\n\nfunc (c *Campaign) executeLoop(l Leaser) { l.LeaseN(nil, c.turnJobs()) }\n"},
	}},
	{"the_executor_leases_in_process", theExecutorLeasesInProcess, []mutation{
		// The alias hides this call from a text match for "queue.Dial".
		{"internal/core/dial.go", "package core\n\nimport q \"snowboard/internal/queue\"\n\nvar c, _ = q.DialOpts(\"\", q.DialOptions{})\n"},
		{"internal/core/campaign.go", "\ntype CampaignEnv struct{ Dial func() }\n"},
	}},
	{"nothing_no_front_door_reaches", nothingNoFrontDoorReaches, []mutation{
		{"internal/sched/triple.go", "package sched\n\nfunc (x *Explorer) ExploreTriple() {}\n"},
		{"internal/core/pipeline.go", "\nvar _ = sched.Explorer{MutateSchedules: true}\n"},
		{"internal/sched/explore.go", "\ntype schedSeed struct{ switches []int }\n"},
		{"internal/sched/explore.go", "\nconst maxSchedSeeds = 4\n"},
		{"internal/sched/explore.go", "\nfunc mutateFlips(base []int) []int { return base }\n"},
		{"internal/sched/explore.go", "\ntype mutated struct{ mutFlags flagSet }\n"},
		{"internal/obs/obs.go", "\nconst MGenBudgetPrefix = \"gen.rounds.\"\n"},
		{"internal/core/feedback.go", "\nfunc clusterLabel(key string) string { return key }\n"},
		{"internal/core/feedback.go", "\nvar perCluster = obs.C(\"gen.budget.\" + key)\n"},
		{"internal/core/feedback.go", "\nfunc allocateBudget(budget int, credits []int64) []int { return nil }\n"},
		{"internal/core/round.go", "package core\n\ntype feedbackRoundState struct{ Credits []int64 }\n"},
	}},
	// The retired names are split so that this file, which the rule reads, does not hold them.
	{"one_reference_model", oneReferenceModel, []mutation{
		{"internal/detect/hb_ref_test.go", "package detect\n\nfunc refFind" + "RacesHB() {}\n"},
		{"internal/cover/walk_diff_test.go", "\ntype te" + "eth struct{}\n"},
		{"internal/sched/scratch_test.go", "\nfunc prevFind" + "Incidental() {}\n"},
	}},
	{"one_byte_reader", oneByteReader, []mutation{
		{"internal/corpus/legacy.go", "package corpus\n\nimport \"encoding/binary\"\n\nvar nprogs, _ = binary.ReadUvarint(nil)\n"},
		{"internal/pmc/codec.go", "\ntype setReader struct {\n\tsrc []byte\n\tbad error\n}\n"},
		{"internal/trace/delta.go", "package trace\n\nimport (\n\t\"encoding/binary\"\n\t\"io\"\n)\n\nfunc readDelta(br io.ByteReader) (int64, error) { return binary.ReadVarint(br) }\n"},
		{"internal/sched/codec.go", "\ntype outcomeReader struct {\n\tb   []byte\n\terr error\n}\n"},
		// The alias hides this call from a text match for "binary.ReadUvarint".
		{"internal/store/envelope.go", "package store\n\nimport bin \"encoding/binary\"\n\nfunc payloadLen(r io.ByteReader) (uint64, error) { return bin.ReadUvarint(r) }\n"},
	}},
	{"one_table2_catalogue", oneTable2Catalogue, []mutation{
		{"internal/detect/detect.go", "\nvar ioError = Issue{Kind: KindIOError, BugID: 4, Harmful: true}\n"},
		{"internal/detect/detect.go", "\nfunc rht(is *Issue) { is.BugID, is.Harmful = 1, true }\n"},
		{"internal/triage/file.go", "package triage\n\nimport \"snowboard/internal/detect\"\n\nfunc file(is *detect.Issue) { is.BugID = 13 }\n"},
	}},
	{"findings_dedup_on_flat_tables", findingsDedupOnFlatTables, []mutation{
		{"internal/detect/hb.go", "\ntype hbState struct{ seen map[raceKey]bool }\n"},
		{"internal/detect/suite.go", "\ntype Scratch struct{ classified map[racePair]Issue }\n"},
		{"internal/detect/suite.go", "\nfunc (sc *Scratch) seen() int { return len(map[IssueKey]bool{}) }\n"},
		{"internal/sched/explore.go", "\ntype scratch struct{ seen map[detect.IssueKey]bool }\n"},
	}},
	{"ci_runs_only_tests_that_exist", ciRunsOnlyTestsThatExist, []mutation{
		{ciWorkflow, "\n      - name: A renamed test\n        run: go test -race -run 'TestChaosFleet|TestGone' ./internal/queue ./internal/core\n"},
		{ciWorkflow, "\n      - name: A renamed fuzz target\n        run: go test -run '^$' -fuzz '^FuzzEdge$' -fuzztime 10s ./internal/cover\n"},
		{ciWorkflow, "\n      - name: A benchmark of another package\n        run: |\n          go test -run '^$' \\\n            -bench 'BenchmarkGuestAccess' ./internal/sched/\n"},
	}},
	{"doc_references_resolve", docReferencesResolve, []mutation{
		{"DESIGN.md", "\n| Figure 1 | `TestBugL2TP` |\n"},
		{"README.md", "\n(EXPERIMENTS.md, \"Per-trial\n  analysis\")\n"},
		{"internal/core/pipeline.go", "\n// The flip's cost (EXPERIMENTS.md, \"What the queue path\n// still skips\").\n"},
		{".claude/skills/verify/SKILL.md", "\n- The trial's flat tables (EXPERIMENTS.md, \"One row per access\").\n"},
	}},
}

// Guest memory is a two-level page table, held locks a stack on the
// thread's slot, waiters a scan of the threads: a map in the three files
// under every load, store and lock operation is a hash probe per access
// coming back.
func nothingHashedUnderAGuestAccess(tr *tree) []string {
	return tr.mapTypes(tr.code("internal/vm/memory.go", "internal/vm/machine.go", "internal/vm/thread.go"))
}

// The flags of a test are one flat set (flagset.go) and the trial
// scheduler is asked only about what it watches: a sig-keyed map in
// internal/sched, or any map in the policy's state or under its OnAccess,
// is the hash probe per asked access coming back.
func nothingHashedWhenTheSchedulerIsAsked(tr *tree) []string {
	var out []string
	files := tr.code("internal/sched/*.go")
	inspect(files, func(f *srcFile, n ast.Node) {
		if m, ok := n.(*ast.MapType); ok {
			if k, ok := m.Key.(*ast.Ident); ok && k.Name == "sig" {
				out = append(out, tr.at(m, "a sig-keyed map"))
			}
		}
	})
	policy := typeSpecs(files, "SnowboardPolicy")
	onAccess := funcs(files, "SnowboardPolicy", "OnAccess")
	if len(policy) == 0 || len(onAccess) == 0 {
		out = append(out, "internal/sched: no SnowboardPolicy type or no (*SnowboardPolicy).OnAccess to check")
	}
	for _, n := range policy {
		out = append(out, tr.mapTypes(nil, n.Type)...)
	}
	for _, n := range onAccess {
		out = append(out, tr.mapTypes(nil, n)...)
	}
	return out
}

// After the guest a trial is one view build and one walk: the coverage
// walker rides the happens-before walk (or walks the view itself when the
// race oracle is off) and keeps the trial's pairs and segments in flat
// sets, and the incidental lookup chains the trial's accesses by view word
// id. A map in the coverage walk, a Shadow slot per access in
// internal/sched, or a second coverage call in the explorer's trial loop is
// the per-access hashing back.
func nothingHashedPerAccessAfterTheTrial(tr *tree) []string {
	out := tr.mapTypes(tr.code("internal/cover/walk.go"))
	files := tr.code("internal/sched/*.go")
	inspect(files, func(f *srcFile, n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Slot" && lastName(sel.X) == "sites" {
				out = append(out, tr.at(n, "a Shadow slot per access (sites.Slot)"))
			}
		case *ast.IndexExpr:
			if f.member(n.X, tracePath) == "Shadow" && lastName(n.Index) == "int32" {
				out = append(out, tr.at(n, "a trace.Shadow[int32] per access"))
			}
		}
	})
	explore := funcs(files, "Explorer", "Explore")
	if len(explore) == 0 {
		out = append(out, "internal/sched: no (*Explorer).Explore to check")
	}
	for _, fd := range explore {
		var calls []string
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if lastName(n.X) == "walk" && n.Sel.IsExported() {
					calls = append(calls, tr.at(n, "walk."+n.Sel.Name))
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "AddTrace" {
					calls = append(calls, tr.at(n, "AddTrace"))
				}
			}
			return true
		})
		if len(calls) > 1 {
			out = append(out, tr.at(fd, fmt.Sprintf("Explore makes %d coverage calls, want at most 1: %v", len(calls), calls)))
		}
	}
	return out
}

// The edge set is a flat table probed without a lock, a campaign has one of
// them, and a run borrows its bodies, Procs and slices from the Env: a map
// or a mutex in the set, a second NewEdges in the fuzz loop, or a per-run
// body or rets slice is the per-execution bookkeeping coming back. The
// candidate memo is keyed by a hash of the program's fields: Prog.Hash() or
// any json call in the fuzz loop is a marshal per candidate. A candidate is
// built in its round slot from the slot's argument arena and the
// generator's scratch: literalArgs/retKindOf, a fresh argument slice, or a
// Clone() beyond the fold's copy-out of what the corpus keeps is a
// per-candidate allocation coming back.
func nothingHashedOrAllocatedPerSequentialExecution(tr *tree) []string {
	edges := tr.code("internal/cover/edges.go")
	out := tr.mapTypes(edges)
	out = append(out, tr.members(edges, "sync")...)

	exec := tr.code("internal/exec/exec.go")
	out = append(out, tr.grep(exec, "a per-run proc body", false, "procBody")...)
	inspect(exec, func(f *srcFile, n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok && isMake(call) {
			if a, ok := call.Args[0].(*ast.ArrayType); ok && a.Len == nil && lastName(a.Elt) == "int64" {
				out = append(out, tr.at(call, "a per-run rets slice (make([]int64, …))"))
			}
		}
	})

	fuzz := tr.code("internal/fuzz/*.go")
	out = append(out, tr.members(fuzz, "encoding/json")...)
	out = append(out, tr.grep(fuzz, "a per-candidate kind lookup", false, "literalArgs", "retKindOf")...)
	var sets, clones []string
	inspect(fuzz, func(f *srcFile, n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			switch {
			case ok && sel.Sel.Name == "Hash" && len(n.Args) == 0:
				out = append(out, tr.at(n, "Hash() per candidate"))
			case ok && sel.Sel.Name == "Clone" && len(n.Args) == 0:
				clones = append(clones, tr.at(n, "Clone()"))
			case f.member(n.Fun, coverPath) == "NewEdges":
				sets = append(sets, tr.at(n, "cover.NewEdges()"))
			case isMake(n) && f.isArgSlice(n.Args[0]):
				out = append(out, tr.at(n, "a fresh argument slice (make([]corpus.Arg, …))"))
			}
		case *ast.CompositeLit:
			if f.isArgSlice(n.Type) {
				out = append(out, tr.at(n, "a fresh argument slice ([]corpus.Arg{…})"))
			}
		}
	})
	if len(sets) != 1 {
		out = append(out, fmt.Sprintf("internal/fuzz: %d cover.NewEdges() calls, want 1: %v", len(sets), sets))
	}
	if len(clones) > 1 {
		out = append(out, fmt.Sprintf("internal/fuzz: %d Clone() calls, want at most 1: %v", len(clones), clones))
	}
	return out
}

// A queue-delivered test is seeded from the pipeline's cursor
// (par.UnitSeed) and its job carries the seed: a job-ID-derived seed is the
// second seed back. The lease keeper (leaseKeeper) and the stage-4
// explorer template live in internal/core/worker.go only; a second copy is
// a front door drifting from the shared recipe again.
func oneDefinitionOfStage4(tr *tree) []string {
	code := tr.code()
	out := tr.grep(code, "a job-ID-derived seed", false, "JobSeed")
	inspect(code, func(f *srcFile, n ast.Node) {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op == token.MUL && (isInt(n.X, "1009") || isInt(n.Y, "1009")) {
				out = append(out, tr.at(n, "a job-ID-derived seed (×1009)"))
			}
		case *ast.AssignStmt:
			if n.Tok == token.MUL_ASSIGN && isInt(n.Rhs[0], "1009") {
				out = append(out, tr.at(n, "a job-ID-derived seed (×1009)"))
			}
		}
	})
	const home = "internal/core/worker.go"
	if tss := typeSpecs(code, "leaseKeeper"); len(tss) != 1 || tr.file(tss[0]) != home {
		out = append(out, fmt.Sprintf("type leaseKeeper is declared at %v, want once, in %s", sites(tr, tss), home))
	}
	var lits []ast.Node
	inspect(tr.code("internal/core/*.go"), func(f *srcFile, n ast.Node) {
		if lit, ok := n.(*ast.CompositeLit); ok && f.member(lit.Type, schedPath) == "Explorer" {
			lits = append(lits, lit)
		}
	})
	if len(lits) != 1 || tr.file(lits[0]) != home {
		out = append(out, fmt.Sprintf("sched.Explorer literals in internal/core at %v, want one, in %s", sites(tr, lits), home))
	}
	return out
}

// Stage 4 explores every test with one template, whichever front door ran
// it: in internal/core a sched.Explorer literal appears only in
// stage4Explorer, and a local-only template (localExplorer), a subset of
// planned PMCs (NewSubset) and the Explorer.Planned field it filled — which
// let a local run adopt from what a queue worker could not — stay gone.
func oneTemplate(tr *tree) []string {
	core := tr.code("internal/core/*.go")
	homes := funcs(core, "", "stage4Explorer")
	var out []string
	if len(homes) != 1 {
		out = append(out, fmt.Sprintf("func stage4Explorer is declared at %v, want once in internal/core", sites(tr, homes)))
	}
	inspect(core, func(f *srcFile, n ast.Node) {
		lit, ok := n.(*ast.CompositeLit)
		if !ok || f.member(lit.Type, schedPath) != "Explorer" {
			return
		}
		if !slices.ContainsFunc(homes, func(fd *ast.FuncDecl) bool { return fd.Pos() <= lit.Pos() && lit.End() <= fd.End() }) {
			out = append(out, tr.at(lit, "a sched.Explorer literal outside stage4Explorer"))
		}
	})
	out = append(out, tr.grep(tr.code(), "a second stage-4 template or a planned subset", true, "localExplorer", "NewSubset")...)
	for _, ts := range typeSpecs(tr.code("internal/sched/*.go"), "Explorer") {
		out = append(out, tr.fields(ts, "Planned")...)
	}
	return out
}

// Algorithm 1 runs on the keyed aggregate (pmc.Incremental); the per-access
// loop lives in internal/pmc/difftest as the reference tests compare it to.
// Its types back in internal/pmc, or an IdentifyParallel that does not go
// through Incremental, is a second engine.
func oneIdentificationEngine(tr *tree) []string {
	files := tr.code("internal/pmc/*.go")
	out := tr.grep(files, "a per-access identification engine", false, "readerView", "writeRec", "func classify(")
	fds := funcs(files, "", "IdentifyParallel")
	if len(fds) == 0 {
		out = append(out, "internal/pmc: no IdentifyParallel to check")
	}
	for _, fd := range fds {
		calls := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && lastName(call.Fun) == "NewIncremental" {
				calls = true
			}
			return !calls
		})
		if !calls {
			out = append(out, tr.at(fd, "IdentifyParallel does not run the Incremental engine (no NewIncremental call)"))
		}
	}
	return out
}

// Guest threads switch with the machine loop on iter.Pull coroutines kept
// across trials (internal/vm/vcpu.go). A channel or a goroutine in the
// package is the old handoff (event channels, a goroutine per Spawn)
// coming back beside it.
func oneThreadHandoff(tr *tree) []string {
	var out []string
	inspect(tr.code("internal/vm/*.go"), func(f *srcFile, n ast.Node) {
		switch n.(type) {
		case *ast.GoStmt:
			out = append(out, tr.at(n, "a goroutine in the guest's thread handoff"))
		case *ast.ChanType:
			out = append(out, tr.at(n, "a channel in the guest's thread handoff"))
		}
	})
	return out
}

// A row carries no lockset: the locks an access was made under follow from
// the trace's lock-word rows (trace.HeldLocks), derived by the one detector
// that reads them. A trace.LockSet in internal/vm, or a call that interns
// — an Intern… or …With/…Without name, or a Shadow slot — in a lock
// operation or in a vm function one reaches, is the per-lock-operation
// interning back.
func noLocksetPerAccess(tr *tree) []string {
	files := tr.code("internal/vm/*.go")
	out := tr.members(files, tracePath, "LockSet")
	decls := make(map[string][]*ast.FuncDecl)
	for _, f := range files {
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				decls[fd.Name.Name] = append(decls[fd.Name.Name], fd)
			}
		}
	}
	var work []*ast.FuncDecl
	for _, op := range []string{"Lock", "Unlock"} {
		ops := funcs(files, "Thread", op)
		if len(ops) == 0 {
			out = append(out, "internal/vm: no (*Thread)."+op+" to check")
		}
		work = append(work, ops...)
	}
	seen := make(map[*ast.FuncDecl]bool)
	for len(work) > 0 {
		fd := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[fd] || fd.Body == nil {
			continue
		}
		seen[fd] = true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				name := lastName(call.Fun)
				if strings.Contains(strings.ToLower(name), "intern") || strings.HasSuffix(name, "With") ||
					strings.HasSuffix(name, "Without") || name == "Slot" {
					out = append(out, tr.at(call, fd.Name.Name+" interns under a lock operation: "+name))
				}
				work = append(work, decls[name]...)
			}
			return true
		})
	}
	return out
}

// Post-trial analyses index per-byte state by the word ids of the trial's
// trace.View; a ByteShadow is a consumer hashing addresses into a table of
// its own again. This rule reads bench/ too.
func oneAddressTableAfterTheTrial(tr *tree) []string {
	var files []*srcFile
	for _, f := range tr.files {
		if !f.test {
			files = append(files, f)
		}
	}
	return tr.grep(files, "a second per-trial address table", false, "ByteShadow")
}

// SBRB in a state dir is the only repro artifact, and an option nobody sets
// is a second path nobody tests: the deleted names must not come back.
func oneReproFormatNoUnsetOptions(tr *tree) []string {
	return tr.grep(tr.code(), "a deleted repro format or unset option", true,
		"ReproBundle", "BundleFormat", "repro-dir", "RaceLockset", "PerformedDenom", "FlagDenom", "MaxReplays", "SetEnabled", "IngestStream", "StopStream")
}

// The store's stage index and object writes are reached from internal/core
// only through loadMemo/saveMemo in state.go (plus the campaign-manifest
// persist in campaign.go); a second caller is a hand-written load/save
// pair coming back. Metrics describe the live process: the persisted SBTS
// time-series, its stage key and the counter restore must not come back.
// The streamed second shape of stages 1-3 is deleted; its names must not
// reappear in any Go file, bench/ and tests included.
func oneStageMemoOnePipelineShape(tr *tree) []string {
	var out []string
	inspect(tr.code("internal/core/*.go"), func(f *srcFile, n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || f.path == "internal/core/state.go" {
			return
		}
		switch name := lastName(call.Fun); {
		case name == "GetStage" || name == "PutStage":
		case name == "Put" && isSelector(call.Fun):
			if f.path == "internal/core/campaign.go" && slices.ContainsFunc(call.Args, func(a ast.Expr) bool { return lastName(a) == "KindCampaign" }) {
				return
			}
		default:
			return
		}
		out = append(out, tr.at(call, "store access outside the stage memo"))
	})
	out = append(out, tr.grep(tr.code(), "the persisted time-series", false,
		"EncodeSeries", "DecodeSeries", "RestoreCounters", "KindSeries", "seriesKey", "loadSeries", "SeriesCodecVersion")...)
	// The names are split so that this file, which the rule reads, does not hold them.
	return append(out, tr.grep(tr.files, "the streaming pipeline shape", false, "Stream"+"Campaign", "Round"+"Func", `"str`+`eam"`)...)
}

// Stages 2–3 (profiling and PMC identification) always compute and store
// nothing: a stage-4 key names the PMC set by how it is derived, never by
// its content. Their memo keys and codecs, the SBPS profile-set codec and
// the trace-record codec only it embedded, the store kinds they filed
// under, and the SBPI snapshot chain (per-16-profile chain keys, a second
// binary format, store kind 7) must not come back.
func stagesTwoThreeAreRecomputed(tr *tree) []string {
	return tr.grep(tr.code(), "stages 2–3 stored or resumed", true,
		"identify-chain", "identifyChainKeys", "identifyBatchSize", "sbpiCodec", "KindPMCIndex", "EncodeIncremental", "DecodeIncremental", "ErrBadIncremental",
		"profile"+"Key", "identify"+"Key", "profiles"+"Codec", "pmcSet"+"Codec", "Append"+"Profiles", "Parse"+"Profiles",
		"Append"+"Block", "Read"+"Block", "Kind"+"Profiles", "Kind"+"PMCs")
}

// The flight recorder's EventLog sink is the one JSONL writer in
// internal/obs (http.go encodes responses), /metrics the one registry view,
// and a campaign's identity its trace: a span tracer, expvar, a process
// campaign list or per-tenant scope counters are second copies nothing
// reads.
func oneJSONLStreamNothingUnread(tr *tree) []string {
	var encs []ast.Node
	for _, f := range tr.code("internal/obs/*.go") {
		if f.path == "internal/obs/http.go" {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && f.member(call.Fun, "encoding/json") == "NewEncoder" {
				encs = append(encs, call)
			}
			return true
		})
	}
	var out []string
	if len(encs) != 1 {
		out = append(out, fmt.Sprintf("json.NewEncoder( in internal/obs outside http.go at %v, want once", sites(tr, encs)))
	}
	return append(out, tr.grep(tr.code(), "a second copy nothing reads", false, `"expvar"`, "CampaignScope(", "Campaigns()", "SetTraceSink")...)
}

// Every queue.Server serves a Registry (Serve registers its queue under the
// empty name), a producer pushes in-process, a worker leases a turn with
// LeaseN, and the frame cap and idle deadline are constants. A wire push
// op, a blocking Queue.Lease, a sync.Cond beside the one in Queue that
// Await waits on, per-queue latency histograms, or a settable field on
// Server is a second way back.
func oneWayToServeAQueue(tr *tree) []string {
	files := tr.code("internal/queue/*.go")
	out := tr.grep(files, "a per-queue latency histogram", false, "duration_ns")
	queues := typeSpecs(files, "Queue")
	var conds []ast.Node
	inspect(files, func(f *srcFile, n ast.Node) {
		if lit, ok := n.(*ast.BasicLit); ok && stringValue(lit) == "push" {
			out = append(out, tr.at(lit, `a wire "push" op`))
		}
		if e, ok := n.(ast.Expr); ok && f.member(e, "sync") == "Cond" {
			conds = append(conds, n)
		}
	})
	if len(queues) != 1 || len(conds) > 1 || len(conds) == 1 && (conds[0].Pos() < queues[0].Pos() || queues[0].End() < conds[0].End()) {
		out = append(out, fmt.Sprintf("sync.Cond in internal/queue at %v, want at most one, in type Queue", sites(tr, conds)))
	}
	for _, fd := range funcs(files, "Queue", "Lease") {
		out = append(out, tr.at(fd, "a blocking Queue.Lease"))
	}
	servers := typeSpecs(files, "Server")
	if len(servers) == 0 {
		out = append(out, "internal/queue: no Server type to check")
	}
	for _, ts := range servers {
		out = append(out, tr.fields(ts, "MaxFrame", "IdleTimeout", "Q", "Reg")...)
	}
	return out
}

// Stage 4 waits on its queue (queue.Queue.Await), never on a clock: a
// time.Sleep in internal/core, cmd/snowboard or examples/distributed is a
// poll standing in for the queue's signal. Two sleeps time something other
// than work arriving, and stay: Worker.Join's JoinPoll, because the wire's
// lease op does not block, and the coordinator's queueDrain hold, which
// serves a closed queue to joined workers for a moment.
func stage4WaitsOnItsQueue(tr *tree) []string {
	var out []string
	for _, f := range tr.code("internal/core/*.go", "cmd/snowboard/*.go", "examples/distributed/*.go") {
		join := funcs([]*srcFile{f}, "Worker", "Join")
		ast.Inspect(f.ast, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || f.member(call.Fun, "time") != "Sleep" || len(call.Args) != 1 {
				return true
			}
			inJoin := slices.ContainsFunc(join, func(fd *ast.FuncDecl) bool { return fd.Pos() <= call.Pos() && call.End() <= fd.End() })
			switch arg := lastName(call.Args[0]); {
			case strings.HasPrefix(f.path, "internal/core/") && inJoin && arg == "JoinPoll":
			case strings.HasPrefix(f.path, "cmd/snowboard/") && arg == "queueDrain":
			default:
				out = append(out, tr.at(call, "a sleep standing in for the queue's signal (wait with queue.Queue.Await)"))
			}
			return true
		})
	}
	return out
}

// Every stage-4 batch is pushed and its fold finished in one place,
// core.Pipeline.runBatch, whichever front door (core.Run, sbd, `snowboard
// -listen`, the distributed example) ran it: one pushBatch( and one
// .finish( in internal/core, where the unexported batch lives; and every
// queue listener serves a registry's named campaign queues.
func oneCoordinator(tr *tree) []string {
	var out []string
	code := tr.code()
	for _, sel := range []string{"pushBatch", "finish"} {
		var calls []ast.Node
		inspect(tr.code("internal/core/*.go"), func(f *srcFile, n ast.Node) {
			if call, ok := n.(*ast.CallExpr); ok && isSelector(call.Fun) && lastName(call.Fun) == sel {
				calls = append(calls, call)
			}
		})
		if len(calls) != 1 || tr.file(calls[0]) != "internal/core/worker.go" {
			out = append(out, fmt.Sprintf(".%s( is called at %v, want once, in internal/core/worker.go", sel, sites(tr, calls)))
		}
	}
	inspect(code, func(f *srcFile, n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok && f.member(call.Fun, queuePath) == "Serve" {
			out = append(out, tr.at(call, "queue.Serve( outside bench/; serve a registry (queue.ServeRegistry)"))
		}
	})
	return out
}

// A stage-4 batch is one value, core's batch: runBatch pushes it, drain
// feeds it each drain of results and runBatch finishes it, so the Pipeline
// keeps no fold in progress — no field of a type that takes a drain of
// results (a method with a []queue.JobResult parameter), and no error
// field parking a batch's failure for a later call to find — and exports
// no method taking results, through which a caller would drive a fold of
// its own.
func oneBatchValue(tr *tree) []string {
	var out []string
	folds := map[string]bool{}
	for _, f := range tr.code("internal/core/*.go") {
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || !slices.Contains(paramTypes(fd), "[]queue.JobResult") {
				continue
			}
			if recvName(fd) != "Pipeline" {
				folds[recvName(fd)] = true
			} else if fd.Name.IsExported() {
				out = append(out, tr.at(fd, "Pipeline."+fd.Name.Name+" takes results; fold a batch through runBatch"))
			}
		}
	}
	if len(folds) == 0 {
		out = append(out, "internal/core: no type takes a drain of results to check Pipeline's fields against")
	}
	for _, ts := range typeSpecs(tr.code("internal/core/*.go"), "Pipeline") {
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			out = append(out, tr.at(ts, "Pipeline is not a struct"))
			continue
		}
		for _, fl := range st.Fields.List {
			ast.Inspect(fl.Type, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && (folds[id.Name] || id.Name == "error") {
					out = append(out, tr.at(fl, "a Pipeline field of type "+types.ExprString(fl.Type)+": a batch's fold state or error belongs to the batch"))
				}
				return true
			})
		}
	}
	return out
}

// A local batch runs as a campaign's does, pushed on a queue and drained
// by in-process Workers (oneCoordinator): a per-worker fleet of explorers
// in internal/core (sched.NewFleet, Fleet.ExploreAll) is a second stage-4
// driver, with a fold and a worker-count invariance of its own. bench/
// keeps the fleet to time a bare exploration.
func oneStage4Driver(tr *tree) []string {
	var out []string
	inspect(tr.code("internal/core/*.go"), func(f *srcFile, n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if f.member(call.Fun, schedPath) == "NewFleet" || isSelector(call.Fun) && lastName(call.Fun) == "ExploreAll" {
			out = append(out, tr.at(call, "a fleet of explorers in internal/core; push the batch (Pipeline.runBatch)"))
		}
	})
	return out
}

// Every pipeline mode runs one spec: cmd/snowboard turns its flags into a
// core.CampaignSpec and takes each mode's Options from BuildOptions, which
// defaults, validates and bounds the spec once for full, compare, profile
// and -listen alike. A budget flag on another command, or Options built by
// hand in cmd/snowboard (DefaultOptions( or a literal), is a second flag
// set drifting from the spec again.
func oneSpecPerFrontDoor(tr *tree) []string {
	var out []string
	declares := regexp.MustCompile(`^((Int|Int64|Uint|Uint64|Float64|String|Bool|Duration|Text)(Var)?|Var|Func)$`)
	inspect(tr.code("cmd/*/*.go"), func(f *srcFile, n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || strings.HasPrefix(f.path, "cmd/snowboard/") || !isSelector(call.Fun) || !declares.MatchString(lastName(call.Fun)) {
			return
		}
		for _, a := range call.Args {
			if lit, ok := a.(*ast.BasicLit); ok && slices.Contains([]string{"fuzz", "corpus", "tests", "trials"}, stringValue(lit)) {
				out = append(out, tr.at(lit, "a -"+stringValue(lit)+" flag outside cmd/snowboard"))
			}
		}
	})
	inspect(tr.code("cmd/snowboard/*.go"), func(f *srcFile, n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			if lastName(n.Fun) == "DefaultOptions" {
				out = append(out, tr.at(n, "Options built by hand (DefaultOptions()); take them from CampaignSpec.BuildOptions"))
			}
		case *ast.CompositeLit:
			if f.member(n.Type, "snowboard") == "Options" || f.member(n.Type, "snowboard/internal/core") == "Options" {
				out = append(out, tr.at(n, "an Options literal; take Options from CampaignSpec.BuildOptions"))
			}
		}
	})
	return out
}

// A turn of jobs is one lease frame and one settle frame: the server
// records a turn's results and releases its leases in one critical section
// (Queue.Settle), one keeper keeps the turn's leases alive, and Worker.Do
// takes the whole turn. A "report" or "ack" case back in serveOp, a per-job
// keepLease( in internal/core (its tests included), or a Worker.Do taking
// one lease is three frames per job again.
func oneFrameEachWayPerTurn(tr *tree) []string {
	var out []string
	serveOp := funcs(tr.code("internal/queue/*.go"), "Server", "serveOp")
	if len(serveOp) == 0 {
		out = append(out, "internal/queue: no (*Server).serveOp to check")
	}
	for _, fd := range serveOp {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if cc, ok := n.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					if lit, ok := e.(*ast.BasicLit); ok && (stringValue(lit) == "report" || stringValue(lit) == "ack") {
						out = append(out, tr.at(lit, "a per-job "+lit.Value+" op in serveOp"))
					}
				}
			}
			return true
		})
	}
	var core []*srcFile
	for _, f := range tr.files {
		if strings.HasPrefix(f.path, "internal/core/") {
			core = append(core, f)
		}
	}
	out = append(out, tr.grep(core, "a per-job lease keeper", false, "keepLease(")...)
	worker := tr.code("internal/core/worker.go")
	do := funcs(worker, "Worker", "Do")
	if len(do) == 0 {
		out = append(out, "internal/core/worker.go: no (*Worker).Do to check")
	}
	for _, fd := range do {
		want := []string{"Leaser", "[]" + worker[0].importName(queuePath) + ".Lease"}
		if got := paramTypes(fd); !slices.Equal(got, want) {
			out = append(out, tr.at(fd, fmt.Sprintf("Worker.Do takes %v, want %v", got, want)))
		}
	}
	return out
}

// A worker joins a campaign it does not own through Worker.Join, one lease
// loop for every front door; a pipeline's own Workers, which share its
// queue's fold, drain it through Pipeline.drain, the one in-process lease
// → Do → fold loop of a local run and a campaign alike. A .LeaseN( call
// outside internal/queue and those two loops is a copied lease loop back.
func oneJoinLoop(tr *tree) []string {
	var out []string
	isLease := func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		return ok && isSelector(call.Fun) && lastName(call.Fun) == "LeaseN"
	}
	loops := make(map[ast.Node]bool)
	core := tr.code("internal/core/*.go")
	for _, fd := range append(funcs(core, "Worker", "Join"), funcs(core, "Pipeline", "drain")...) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if isLease(n) {
				loops[n] = true
			}
			return true
		})
	}
	inspect(tr.code(), func(f *srcFile, n ast.Node) {
		if !strings.HasPrefix(f.path, "internal/queue/") && isLease(n) && !loops[n] {
			out = append(out, tr.at(n, "a lease loop of its own (.LeaseN(); join through core.Worker.Join, or drain through Pipeline.drain"))
		}
	})
	return out
}

// An sbd campaign's executor leases and settles its own queue in the
// process that holds it (localLeaser); the registry's TCP listener is for
// workers that join from elsewhere. A queue client dialed in internal/core,
// or a Dial field back on CampaignEnv, is loopback TCP under the executor
// again.
func theExecutorLeasesInProcess(tr *tree) []string {
	files := tr.code("internal/core/*.go")
	var out []string
	inspect(files, func(f *srcFile, n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			if name := f.member(call.Fun, queuePath); strings.HasPrefix(name, "Dial") {
				out = append(out, tr.at(call, "a queue client dialed under the executor (queue."+name+")"))
			}
		}
	})
	envs := typeSpecs(files, "CampaignEnv")
	if len(envs) == 0 {
		out = append(out, "internal/core: no CampaignEnv type to check")
	}
	for _, ts := range envs {
		out = append(out, tr.fields(ts, "Dial")...)
	}
	return out
}

// Three-thread exploration, initial-state growth, PCT, the guest's
// synchronize_rcu and trylock, the per-job delivery timeline and the
// triage signature index were reached by nothing but their own tests
// (EXPERIMENTS.md, "What campaigns reach"), and a worker has no trial
// budget of its own: each job carries its campaign's (TestSbexecUsage).
// The feedback loop's schedule mutation reached no row sooner at equal
// trials (EXPERIMENTS.md, "Feedback mechanisms at equal trials"), and its
// per-cluster budget counters were the only metric named at run time: a
// long-lived process gained one per cluster of every feedback campaign.
// Its round allocation — each round's budget split by the clusters'
// decaying segment credit, checkpointed with the round — cost rows where
// the CLI runs (rows over seeds 3–12 on both kernel versions, 20
// campaigns; EXPERIMENTS.md, "Feedback mechanisms at equal trials"):
//
//	fuzz / corpus / tests × trials   one-shot   allocating   walking
//	400 / 120 / 60 × 16 (CLI)           121          88         124
//	600 / 150 / 80 × 16                 150         100         146
//	600 / 150 / 400 × 24                186         187         188
//
// TestEveryFunctionIsLinked holds the rest of this rule.
func nothingNoFrontDoorReaches(tr *tree) []string {
	out := tr.grep(tr.code(), "code no front door reaches", false,
		"ExploreTriple", "IdentifyTriples", "RunMany", "NewEnvWithSetup", "ModePCT", "SynchronizeRCU", "TryLock(", "JobEvent", "func Register(",
		"MutateSchedules", "schedSeed", "maxSchedSeeds", "mutateFlips", "mutFlags", "MGenBudgetPrefix", "clusterLabel", "gen.budget.",
		"allocateBudget")
	for _, ts := range typeSpecs(tr.code("internal/core/*.go"), "feedbackRoundState") {
		out = append(out, tr.fields(ts, "Credits")...)
	}
	return out
}

// A trial's analysis has one reference, internal/detect/model, with one
// trace generator and one census: a test keeping the implementation a
// change replaced, or a generator or census of its own, is a second
// reference back. This rule reads the _test.go files, bench/ included.
func oneReferenceModel(tr *tree) []string {
	var tests []*srcFile
	for _, f := range tr.files {
		if f.test {
			tests = append(tests, f)
		}
	}
	return tr.grep(tests, "a retired reference of a trial's analysis", true,
		"ref"+"FindRacesHB", "ref"+"Pairs", "ref"+"Segments", "ref"+"FindTornReads", "prev"+"ChannelExercised",
		"prev"+"FindIncidental", "ref"+"FindIncidental", "gen"+"TornTrace", "rand"+"Trace", "type "+"teeth")
}

// Every binary format decodes untrusted bytes through internal/wire's one
// latched-error Reader. A binary.ReadUvarint/ReadVarint call, or a struct
// of nothing but []byte and error fields (a latched reader of its own),
// outside internal/wire is a second byte discipline back. Stage 1's
// binary.Uvarint in the fuzz loop decodes no stored bytes and is not one.
func oneByteReader(tr *tree) []string {
	var out []string
	for _, f := range tr.code() {
		if strings.HasPrefix(f.path, "internal/wire/") {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if name := f.member(n.Fun, "encoding/binary"); name == "ReadUvarint" || name == "ReadVarint" {
					out = append(out, tr.at(n, "binary."+name+" outside internal/wire"))
				}
			case *ast.StructType:
				kinds := map[string]bool{}
				for _, fl := range n.Fields.List {
					kinds[types.ExprString(fl.Type)] = true
				}
				if len(kinds) == 2 && kinds["[]byte"] && kinds["error"] {
					out = append(out, tr.at(n, "a latched byte reader outside internal/wire"))
				}
			}
			return true
		})
	}
	return out
}

// Every rule that files a finding under a Table 2 row is a field of that
// KnownBug row in internal/detect/bugs.go, and race, panic and console
// findings all take their row through one index of them: a BugID or
// Harmful set from a literal anywhere else is a filing rule outside the
// catalogue again.
func oneTable2Catalogue(tr *tree) []string {
	var out []string
	filed := func(field, value ast.Expr) {
		name := lastName(field)
		if name != "BugID" && name != "Harmful" {
			return
		}
		switch v := value.(type) {
		case *ast.BasicLit:
		case *ast.Ident:
			if v.Name != "true" && v.Name != "false" {
				return
			}
		default:
			return
		}
		out = append(out, tr.at(value, name+" set from a literal; file under a Table 2 row (detect.KnownBug)"))
	}
	inspect(tr.code(), func(f *srcFile, n ast.Node) {
		if f.path == "internal/detect/bugs.go" {
			return
		}
		switch n := n.(type) {
		case *ast.KeyValueExpr:
			filed(n.Key, n.Value)
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if isSelector(lhs) {
						filed(lhs, n.Rhs[i])
					}
				}
			}
		}
	})
	return out
}

// A trial files the same few races over and over, so its findings are
// deduplicated on flat tables: the happens-before walk chains its race keys
// per address off a trace.Shadow, and detect.Scratch and the explorer's
// per-test scratch mark races by their packed pair in one. A Go map keyed
// by raceKey, racePair or IssueKey anywhere in internal/detect or
// internal/sched is a padded struct hashed field by field per report coming
// back. (core's per-job outcome fold keeps its IssueKey map: it runs once
// per test, not per report.)
func findingsDedupOnFlatTables(tr *tree) []string {
	var out []string
	inspect(tr.code("internal/detect/*.go", "internal/sched/*.go"), func(f *srcFile, n ast.Node) {
		if m, ok := n.(*ast.MapType); ok {
			if k := lastName(m.Key); k == "raceKey" || k == "racePair" || k == "IssueKey" {
				out = append(out, tr.at(m, "a map keyed by "+k))
			}
		}
	})
	return out
}

// Docs name what exists: every backticked Test*, Benchmark* or Fuzz* name
// in README.md, DESIGN.md and EXPERIMENTS.md is a function some _test.go
// declares (a trailing * stands for any suffix; a /subtest is not
// checked), and every `EXPERIMENTS.md "<title>"` citation in a Go comment
// or a markdown file names a heading of EXPERIMENTS.md (one that starts
// with the title). A citation in a code span shows the form and is not
// one; CHANGES.md and ROADMAP.md record history and are not read.
func docReferencesResolve(tr *tree) []string {
	declared := map[string]bool{}
	for _, f := range tr.files {
		if !f.test {
			continue
		}
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				declared[fd.Name.Name] = true
			}
		}
	}
	var out []string
	for _, name := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		d := tr.doc(name)
		if d == nil {
			out = append(out, name+": missing")
			continue
		}
		for _, m := range testNameRE.FindAllSubmatchIndex(d.src, -1) {
			fn, ok := string(d.src[m[2]:m[3]]), false
			for n := range declared {
				ok = ok || n == fn || m[5] > m[4] && strings.HasPrefix(n, fn)
			}
			if !ok {
				out = append(out, fmt.Sprintf("%s:%d: %s is declared in no _test.go", name, lineOf(d.src, m[0]), d.src[m[0]:m[1]]))
			}
		}
	}
	var headings []string
	if d := tr.doc("EXPERIMENTS.md"); d != nil {
		for _, line := range strings.Split(string(d.src), "\n") {
			if t := strings.TrimLeft(line, "#"); len(t) < len(line) && strings.HasPrefix(t, " ") {
				headings = append(headings, strings.TrimSpace(t))
			}
		}
	}
	check := func(path string, cites []citation) {
		for _, c := range cites {
			if !slices.ContainsFunc(headings, func(h string) bool {
				return strings.HasPrefix(h, c.title) && !isWordByte([]byte(h), len(c.title))
			}) {
				out = append(out, fmt.Sprintf("%s:%d: EXPERIMENTS.md has no heading %q", path, c.line, c.title))
			}
		}
	}
	for _, f := range tr.docs {
		if f.path != "CHANGES.md" && f.path != "ROADMAP.md" {
			check(f.path, experimentsCitations(string(f.src), 1))
		}
	}
	for _, f := range tr.files {
		for _, g := range f.ast.Comments {
			from, to := tr.fset.Position(g.Pos()), tr.fset.Position(g.End())
			check(f.path, experimentsCitations(string(f.src[from.Offset:to.Offset]), from.Line))
		}
	}
	return out
}

// ciWorkflow is the CI workflow, the one non-markdown doc the tree reads.
const ciWorkflow = ".github/workflows/ci.yml"

// CI runs only tests that exist: go test passes when a -run, -fuzz or
// -bench pattern matches nothing, so a renamed test empties the CI step
// that names it, silently. Every alternative of such a pattern on a go
// test line of the workflow matches a function a _test.go of the packages
// the line names declares: a Test, Fuzz or Example function for -run (its
// first /-separated element; subtests are not checked), a Fuzz function
// for -fuzz, a Benchmark for -bench. An alternative matching the empty
// name ('^$', run nothing) needs none.
func ciRunsOnlyTestsThatExist(tr *tree) []string {
	ci := tr.doc(ciWorkflow)
	if ci == nil {
		return []string{ciWorkflow + ": missing"}
	}
	declared := map[string][]string{} // by package directory
	for _, f := range tr.files {
		if !f.test {
			continue
		}
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				declared[pathpkg.Dir(f.path)] = append(declared[pathpkg.Dir(f.path)], fd.Name.Name)
			}
		}
	}
	kinds := map[string][]string{"-run": {"Test", "Fuzz", "Example"}, "-fuzz": {"Fuzz"}, "-bench": {"Benchmark"}}
	var out []string
	for _, cmd := range goTestCommands(string(ci.src)) {
		var pkgs []string
		for _, w := range cmd.words {
			if w == "." || strings.HasPrefix(w, "./") {
				pkgs = append(pkgs, pathpkg.Clean(w))
			}
		}
		for i, w := range cmd.words {
			flag, pattern, ok := strings.Cut(w, "=")
			if !ok && i+1 < len(cmd.words) {
				pattern = cmd.words[i+1]
			}
			if kinds[flag] == nil {
				continue
			}
			if flag == "-run" {
				pattern = splitPattern(pattern, '/')[0]
			}
			for _, alt := range splitPattern(pattern, '|') {
				re, err := regexp.Compile(alt)
				if err != nil {
					out = append(out, fmt.Sprintf("%s:%d: %s alternative %q: %v", ciWorkflow, cmd.line, flag, alt, err))
					continue
				}
				if re.MatchString("") || slices.ContainsFunc(pkgs, func(pkg string) bool {
					return slices.ContainsFunc(declared[pkg], func(fn string) bool {
						return re.MatchString(fn) && slices.ContainsFunc(kinds[flag], func(k string) bool { return strings.HasPrefix(fn, k) })
					})
				}) {
					continue
				}
				out = append(out, fmt.Sprintf("%s:%d: %s alternative %q matches no %s function in %v",
					ciWorkflow, cmd.line, flag, alt, strings.Join(kinds[flag], ", "), pkgs))
			}
		}
	}
	return out
}

// A goTestCommand is one go test command of a workflow: its words from
// "go test" up to the first shell operator, quotes removed, and its line.
type goTestCommand struct {
	words []string
	line  int
}

// goTestCommands returns the go test commands in src. A trailing
// backslash continues a command on the next line.
func goTestCommands(src string) []goTestCommand {
	var out []goTestCommand
	lines := strings.Split(src, "\n")
	for n := 0; n < len(lines); n++ {
		line, at := lines[n], n+1
		for strings.HasSuffix(line, "\\") && n+1 < len(lines) {
			n++
			line = strings.TrimSuffix(line, "\\") + " " + lines[n]
		}
		i := strings.Index(line, "go test ")
		if i < 0 {
			continue
		}
		var words []string
		var w strings.Builder
		inWord, quote := false, byte(0)
	scan:
		for _, c := range []byte(line[i:] + " ") {
			switch {
			case quote != 0 && c == quote:
				quote = 0
			case quote != 0:
				w.WriteByte(c)
			case c == '\'' || c == '"':
				quote, inWord = c, true
			case c == ' ' || c == '\t':
				if inWord {
					words = append(words, w.String())
				}
				w.Reset()
				inWord = false
			case strings.IndexByte("|;&>", c) >= 0:
				break scan
			default:
				w.WriteByte(c)
				inWord = true
			}
		}
		out = append(out, goTestCommand{words, at})
	}
	return out
}

// splitPattern splits a go test pattern at each sep outside parentheses
// and brackets, as go test splits a -run pattern into its levels.
func splitPattern(pattern string, sep byte) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(pattern); i++ {
		switch c := pattern[i]; {
		case c == '\\':
			i++
		case c == '(' || c == '[':
			depth++
		case c == ')' || c == ']':
			depth--
		case c == sep && depth == 0:
			out = append(out, pattern[start:i])
			start = i + 1
		}
	}
	return append(out, pattern[start:])
}

// testNameRE matches a backticked test, benchmark or fuzz target name,
// with an optional trailing * and /subtest path.
var testNameRE = regexp.MustCompile("`((?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*)(\\*?)(?:/[^`\\s]*)?`")

// A citation is one section title an EXPERIMENTS.md citation names.
type citation struct {
	title string
	line  int
}

// experimentsCitations returns the titles quoted after each mention of
// EXPERIMENTS.md in src, whose first line is line: `EXPERIMENTS.md "A"`,
// `EXPERIMENTS.md, "A", "B" and "C"`. A title may wrap across lines, in a
// Go comment too; it is returned with its whitespace and comment markers
// folded to single spaces.
func experimentsCitations(src string, line int) []citation {
	const cite = "EXPERIMENTS.md"
	var out []citation
	for i := 0; ; {
		j := strings.Index(src[i:], cite)
		if j < 0 {
			return out
		}
		i += j + len(cite)
		start := strings.LastIndexByte(src[:i], '\n') + 1
		if strings.Count(src[start:i], "`")%2 == 1 {
			continue // quoted in a code span
		}
		for k := i; ; {
			k += len(src[k:]) - len(strings.TrimLeft(src[k:], ", \t\n/"))
			if strings.HasPrefix(src[k:], "and ") {
				k += len("and ")
				continue
			}
			if !strings.HasPrefix(src[k:], `"`) {
				break
			}
			end := strings.IndexByte(src[k+1:], '"')
			if end < 0 {
				break
			}
			var words []string
			for n, l := range strings.Split(src[k+1:k+1+end], "\n") {
				if n > 0 {
					l = strings.TrimPrefix(strings.TrimSpace(l), "//")
				}
				words = append(words, strings.Fields(l)...)
			}
			out = append(out, citation{strings.Join(words, " "), line + strings.Count(src[:k], "\n")})
			k += end + 2
		}
	}
}

// lineOf is the 1-based line of src's byte i.
func lineOf(src []byte, i int) int { return 1 + bytes.Count(src[:i], []byte("\n")) }

// inspect calls fn for every node of the files.
func inspect(files []*srcFile, fn func(f *srcFile, n ast.Node)) {
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			fn(f, n)
			return true
		})
	}
}

const (
	coverPath = "snowboard/internal/cover"
	queuePath = "snowboard/internal/queue"
	schedPath = "snowboard/internal/sched"
	tracePath = "snowboard/internal/trace"
)

// A tree is every Go file under the repository root, parsed once, and
// every markdown file and the CI workflow, read. Directories whose names
// start with "." hold no source and are skipped, except .claude, whose
// skills are markdown docs, and .github, which holds the workflow.
type tree struct {
	fset  *token.FileSet
	files []*srcFile
	docs  []*srcFile // the markdown files and the CI workflow, with no ast
}

// A srcFile is one parsed file of the tree.
type srcFile struct {
	path  string // slash-separated, from the repository root
	src   []byte
	ast   *ast.File
	test  bool // a _test.go file
	bench bool // under bench/
}

func loadTree(t *testing.T) *tree {
	t.Helper()
	tr := &tree{fset: token.NewFileSet()}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && path != ".claude" && path != ".github" && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		md := strings.HasSuffix(path, ".md") || filepath.ToSlash(path) == ciWorkflow
		if !md && !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if md {
			tr.docs = append(tr.docs, &srcFile{path: filepath.ToSlash(path), src: src})
			return nil
		}
		f, err := tr.parse(filepath.ToSlash(path), src)
		tr.files = append(tr.files, f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func (tr *tree) parse(path string, src []byte) (*srcFile, error) {
	f, err := parser.ParseFile(tr.fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
	return &srcFile{
		path:  path,
		src:   src,
		ast:   f,
		test:  strings.HasSuffix(path, "_test.go"),
		bench: strings.HasPrefix(path, "bench/"),
	}, err
}

// with returns the tree with m applied. A mutation of a doc appends to it.
func (tr *tree) with(t *testing.T, m mutation) *tree {
	t.Helper()
	out := &tree{fset: tr.fset, files: slices.Clone(tr.files), docs: slices.Clone(tr.docs)}
	if !strings.HasSuffix(m.path, ".go") {
		d := out.doc(m.path)
		if d == nil {
			t.Fatalf("mutation appends to %s, which does not exist", m.path)
		}
		i := slices.Index(out.docs, d)
		out.docs[i] = &srcFile{path: d.path, src: append(slices.Clip(d.src), m.src...)}
		return out
	}
	i := slices.IndexFunc(out.files, func(f *srcFile) bool { return f.path == m.path })
	src := []byte(m.src)
	if !strings.HasPrefix(m.src, "package ") {
		if i < 0 {
			t.Fatalf("mutation appends to %s, which does not exist", m.path)
		}
		src = append(slices.Clip(out.files[i].src), src...)
	}
	f, err := out.parse(m.path, src)
	if err != nil {
		t.Fatalf("mutation of %s: %v", m.path, err)
	}
	if i < 0 {
		out.files = append(out.files, f)
	} else {
		out.files[i] = f
	}
	return out
}

// doc is the markdown file at path, or nil.
func (tr *tree) doc(path string) *srcFile {
	if i := slices.IndexFunc(tr.docs, func(f *srcFile) bool { return f.path == path }); i >= 0 {
		return tr.docs[i]
	}
	return nil
}

// code returns the non-test files outside bench/ whose paths match one of
// the patterns (path.Match syntax: "dir/*.go" is the directory's own
// files), or all of them with no pattern.
func (tr *tree) code(patterns ...string) []*srcFile {
	var out []*srcFile
	for _, f := range tr.files {
		if f.test || f.bench {
			continue
		}
		if len(patterns) == 0 || slices.ContainsFunc(patterns, func(p string) bool {
			ok, _ := pathpkg.Match(p, f.path)
			return ok
		}) {
			out = append(out, f)
		}
	}
	return out
}

// grep returns a violation for each occurrence of one of the names in the
// files' source, comments and strings included; with word set, only for
// one that stands as a whole word, as grep -w matches.
func (tr *tree) grep(files []*srcFile, what string, word bool, names ...string) []string {
	var out []string
	for _, f := range files {
		for _, name := range names {
			for i := 0; ; i += len(name) {
				j := bytes.Index(f.src[i:], []byte(name))
				if j < 0 {
					break
				}
				i += j
				if word && (isWordByte(f.src, i-1) || isWordByte(f.src, i+len(name))) {
					continue
				}
				line := 1 + bytes.Count(f.src[:i], []byte("\n"))
				out = append(out, fmt.Sprintf("%s:%d: %s: %s", f.path, line, what, name))
			}
		}
	}
	return out
}

// isWordByte reports whether src[i] exists and is a letter, digit or
// underscore.
func isWordByte(src []byte, i int) bool {
	if i < 0 || i >= len(src) {
		return false
	}
	c := src[i]
	return c == '_' || '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

// mapTypes returns a violation for each map type in the files, or under
// the nodes.
func (tr *tree) mapTypes(files []*srcFile, nodes ...ast.Node) []string {
	for _, f := range files {
		nodes = append(nodes, f.ast)
	}
	var out []string
	for _, root := range nodes {
		ast.Inspect(root, func(n ast.Node) bool {
			if _, ok := n.(*ast.MapType); ok {
				out = append(out, tr.at(n, "a map"))
			}
			return true
		})
	}
	return out
}

// members returns a violation for each reference in the files to one of
// the named members of the package at importPath, or to any member with no
// name given.
func (tr *tree) members(files []*srcFile, importPath string, names ...string) []string {
	var out []string
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				if name := f.member(e, importPath); name != "" && (len(names) == 0 || slices.Contains(names, name)) {
					out = append(out, tr.at(n, importPath+"."+name))
					return false
				}
			}
			return true
		})
	}
	return out
}

// funcs returns the functions the files declare with the name, methods of
// recv (with or without a pointer) when recv is set.
func funcs(files []*srcFile, recv, name string) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != name {
				continue
			}
			if (recv == "" && fd.Recv == nil) || (recv != "" && fd.Recv != nil && recvName(fd) == recv) {
				out = append(out, fd)
			}
		}
	}
	return out
}

// typeSpecs returns the files' declarations of the named type.
func typeSpecs(files []*srcFile, name string) []*ast.TypeSpec {
	var out []*ast.TypeSpec
	for _, f := range files {
		for _, d := range f.ast.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
				for _, s := range gd.Specs {
					if ts := s.(*ast.TypeSpec); ts.Name.Name == name {
						out = append(out, ts)
					}
				}
			}
		}
	}
	return out
}

// fields returns a violation for each field of the struct type ts with one
// of the names.
func (tr *tree) fields(ts *ast.TypeSpec, names ...string) []string {
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		return []string{tr.at(ts, ts.Name.Name+" is not a struct")}
	}
	var out []string
	for _, fl := range st.Fields.List {
		for _, n := range fl.Names {
			if slices.Contains(names, n.Name) {
				out = append(out, tr.at(n, "field "+ts.Name.Name+"."+n.Name))
			}
		}
	}
	return out
}

// pos is the file:line of n.
func (tr *tree) pos(n ast.Node) string {
	p := tr.fset.Position(n.Pos())
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// at is a violation at n.
func (tr *tree) at(n ast.Node, what string) string { return tr.pos(n) + ": " + what }

// file is the path of the file holding n.
func (tr *tree) file(n ast.Node) string { return tr.fset.Position(n.Pos()).Filename }

// sites lists the file:line of each node.
func sites[N ast.Node](tr *tree, nodes []N) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = tr.pos(n)
	}
	return out
}

// importName is the name f refers to the package at path by: its alias,
// "." for a dot import, or the path's last element; "" if f does not
// import it.
func (f *srcFile) importName(path string) string {
	for _, s := range f.ast.Imports {
		if p, _ := strconv.Unquote(s.Path.Value); p == path {
			if s.Name != nil {
				return s.Name.Name
			}
			return pathpkg.Base(p)
		}
	}
	return ""
}

// member is the name e selects from the package at path, however f
// imports it, or "".
func (f *srcFile) member(e ast.Expr, path string) string {
	switch name := f.importName(path); e := e.(type) {
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok && name != "" && x.Name == name {
			return e.Sel.Name
		}
	case *ast.Ident:
		if name == "." {
			return e.Name
		}
	}
	return ""
}

// isArgSlice reports whether e is the type []corpus.Arg.
func (f *srcFile) isArgSlice(e ast.Expr) bool {
	a, ok := e.(*ast.ArrayType)
	return ok && a.Len == nil && f.member(a.Elt, "snowboard/internal/corpus") == "Arg"
}

// lastName is the identifier e ends in: x for x, x.y.z for z; "" for
// anything else.
func lastName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

func isSelector(e ast.Expr) bool {
	_, ok := e.(*ast.SelectorExpr)
	return ok
}

func isMake(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "make" && len(call.Args) > 0
}

func isInt(e ast.Expr, v string) bool {
	lit, ok := e.(*ast.BasicLit)
	return ok && lit.Kind == token.INT && lit.Value == v
}

func stringValue(lit *ast.BasicLit) string {
	if lit.Kind != token.STRING {
		return ""
	}
	s, _ := strconv.Unquote(lit.Value)
	return s
}

// recvName is the base type name of fd's receiver.
func recvName(fd *ast.FuncDecl) string {
	e := fd.Recv.List[0].Type
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	return lastName(e)
}

// paramTypes lists fd's parameter types, one per parameter.
func paramTypes(fd *ast.FuncDecl) []string {
	var out []string
	for _, fl := range fd.Type.Params.List {
		for range max(1, len(fl.Names)) {
			out = append(out, types.ExprString(fl.Type))
		}
	}
	return out
}
