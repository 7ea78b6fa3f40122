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
		{"cmd/sbexec/turn.go", "package main\n\nfunc keepTurn() {}\n"},
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
	{"one_way_to_resume_stage_3", oneWayToResumeStage3, []mutation{
		{"internal/core/state.go", "\nconst identifyBatchSize = 16\n"},
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
	{"one_coordinator", oneCoordinator, []mutation{
		{"cmd/sbqueue/fold.go", "package main\n\nfunc fold(p *core.Pipeline) { p.FoldResults(nil) }\n"},
		{"cmd/sbqueue/serve.go", "package main\n\nimport \"snowboard/internal/queue\"\n\nvar _, _ = queue.Serve(nil, \"\")\n"},
	}},
	{"one_frame_each_way_per_turn", oneFrameEachWayPerTurn, []mutation{
		{"internal/queue/net.go", "\nfunc (s *Server) serveOp(op string) {\n\tswitch op {\n\tcase \"lease\", \"report\":\n\t}\n}\n"},
		{"internal/core/keep_test.go", "package core\n\nfunc init() { keepLease(nil) }\n"},
		{"internal/core/worker.go", "\nfunc (w *Worker) Do(lsr Leaser, l queue.Lease) {}\n"},
	}},
	{"the_executor_leases_in_process", theExecutorLeasesInProcess, []mutation{
		// The alias hides this call from a text match for "queue.Dial".
		{"internal/core/dial.go", "package core\n\nimport q \"snowboard/internal/queue\"\n\nvar c, _ = q.DialOpts(\"\", q.DialOptions{})\n"},
		{"internal/core/campaign.go", "\ntype CampaignEnv struct{ Dial func() }\n"},
	}},
	{"nothing_no_front_door_reaches", nothingNoFrontDoorReaches, []mutation{
		{"internal/sched/triple.go", "package sched\n\nfunc (x *Explorer) ExploreTriple() {}\n"},
	}},
	// The retired names are split so that this file, which the rule reads, does not hold them.
	{"one_reference_model", oneReferenceModel, []mutation{
		{"internal/detect/hb_ref_test.go", "package detect\n\nfunc refFind" + "RacesHB() {}\n"},
		{"internal/cover/walk_diff_test.go", "\ntype te" + "eth struct{}\n"},
		{"internal/sched/scratch_test.go", "\nfunc prevFind" + "Incidental() {}\n"},
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
// second seed back. keepTurn and the stage-4 explorer template live in
// internal/core/worker.go only; a second copy is a front door drifting from
// the shared recipe again.
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
	if fds := funcs(code, "", "keepTurn"); len(fds) != 1 || tr.file(fds[0]) != home {
		out = append(out, fmt.Sprintf("func keepTurn is declared at %v, want once, in %s", sites(tr, fds), home))
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

// Stage 3 is an identifyKey memo hit or one pmc.Identify batch, with or
// without a store. The SBPI snapshot chain (per-16-profile chain keys, a
// second binary format, store kind 7) must not come back.
func oneWayToResumeStage3(tr *tree) []string {
	return tr.grep(tr.code(), "a second way to resume stage 3", false,
		"identify-chain", "identifyChainKeys", "identifyBatchSize", "sbpiCodec", "KindPMCIndex", "EncodeIncremental", "DecodeIncremental", "ErrBadIncremental")
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
// op, a blocking Queue.Lease and the sync.Cond behind it, per-queue latency
// histograms, or a settable field on Server is a second way back.
func oneWayToServeAQueue(tr *tree) []string {
	files := tr.code("internal/queue/*.go")
	out := tr.grep(files, "a per-queue latency histogram", false, "duration_ns")
	out = append(out, tr.members(files, "sync", "Cond")...)
	inspect(files, func(f *srcFile, n ast.Node) {
		if lit, ok := n.(*ast.BasicLit); ok && stringValue(lit) == "push" {
			out = append(out, tr.at(lit, `a wire "push" op`))
		}
	})
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

// A campaign pushes its tests and folds their results in one place,
// core.Campaign.runDistributed, whichever front door (sbd, sbqueue, the
// distributed example) started it; and every queue listener serves a
// registry's named campaign queues.
func oneCoordinator(tr *tree) []string {
	var out []string
	code := tr.code()
	for _, sel := range []string{"PushTests", "FoldResults"} {
		var calls []ast.Node
		inspect(code, func(f *srcFile, n ast.Node) {
			if call, ok := n.(*ast.CallExpr); ok && isSelector(call.Fun) && lastName(call.Fun) == sel {
				calls = append(calls, call)
			}
		})
		if len(calls) != 1 || tr.file(calls[0]) != "internal/core/campaign.go" {
			out = append(out, fmt.Sprintf(".%s( is called at %v, want once, in internal/core/campaign.go", sel, sites(tr, calls)))
		}
	}
	inspect(code, func(f *srcFile, n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok && f.member(call.Fun, queuePath) == "Serve" {
			out = append(out, tr.at(call, "queue.Serve( outside bench/; serve a registry (queue.ServeRegistry)"))
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
// TestEveryFunctionIsLinked holds the rest of this rule.
func nothingNoFrontDoorReaches(tr *tree) []string {
	return tr.grep(tr.code(), "code no front door reaches", false,
		"ExploreTriple", "IdentifyTriples", "RunMany", "NewEnvWithSetup", "ModePCT", "SynchronizeRCU", "TryLock(", "JobEvent", "func Register(")
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

// A tree is every Go file under the repository root, parsed once.
// Directories whose names start with "." hold no source and are skipped.
type tree struct {
	fset  *token.FileSet
	files []*srcFile
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
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
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
	f, err := parser.ParseFile(tr.fset, path, src, parser.SkipObjectResolution)
	return &srcFile{
		path:  path,
		src:   src,
		ast:   f,
		test:  strings.HasSuffix(path, "_test.go"),
		bench: strings.HasPrefix(path, "bench/"),
	}, err
}

// with returns the tree with m applied.
func (tr *tree) with(t *testing.T, m mutation) *tree {
	t.Helper()
	out := &tree{fset: tr.fset, files: slices.Clone(tr.files)}
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
