package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"snowboard/internal/cluster"
	"snowboard/internal/corpus"
	"snowboard/internal/detect"
	"snowboard/internal/kernel"
	"snowboard/internal/obs"
	"snowboard/internal/pmc"
	"snowboard/internal/queue"
	"snowboard/internal/sched"
	"snowboard/internal/store"
	"snowboard/internal/trace"
	"snowboard/internal/triage"
)

// stateTestOptions is a small, fast configuration used by the resume tests.
func stateTestOptions(t *testing.T) Options {
	t.Helper()
	opts := DefaultOptions()
	opts.Seed = 5
	opts.FuzzBudget = 60
	opts.CorpusCap = 20
	opts.TestBudget = 6
	opts.Trials = 4
	opts.StateDir = t.TempDir()
	return opts
}

// normalizeMetrics strips the frozen metrics registry, which legitimately
// differs between producing runs (process-global counters keep growing).
func normalizeMetrics(r *Report) *Report {
	c := *r
	c.Metrics = nil
	return &c
}

// normalizeTimings additionally zeroes wall-clock stage durations, for
// comparisons between two *producing* runs (re-executed stages measure
// fresh, slightly different times; everything else must be bit-identical).
func normalizeTimings(r *Report) *Report {
	c := normalizeMetrics(r)
	c.FuzzTime, c.ProfileTime, c.IdentifyTime, c.ClusterTime, c.ExecTime = 0, 0, 0, 0, 0
	return c
}

// counters reads the store stage-cache counters.
func counters() (hits, misses int64) {
	return obs.C(obs.MStoreHits).Value(), obs.C(obs.MStoreMisses).Value()
}

// TestResumeWarmEqualsCold is the golden resume test: a cold run persists
// every stage, and a second Run with the same options — a fresh Pipeline,
// same -state — hits every stage cache and returns a report deep-equal to
// the cold one (byte-identical as JSON, metrics included, because the full
// cache hit returns the stored report verbatim).
func TestResumeWarmEqualsCold(t *testing.T) {
	opts := stateTestOptions(t)

	h0, m0 := counters()
	cold, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	h1, m1 := counters()
	if hits := h1 - h0; hits != 0 {
		t.Errorf("cold run recorded %d stage hits, want 0", hits)
	}
	if misses := m1 - m0; misses != 4 {
		t.Errorf("cold run recorded %d stage misses, want 4 (fuzz, profile, identify, execute)", misses)
	}

	warm, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	h2, m2 := counters()
	if hits := h2 - h1; hits != 4 {
		t.Errorf("warm run recorded %d stage hits, want 4", hits)
	}
	if misses := m2 - m1; misses != 0 {
		t.Errorf("warm run recorded %d stage misses, want 0", misses)
	}

	if !reflect.DeepEqual(normalizeMetrics(warm), normalizeMetrics(cold)) {
		t.Error("warm report differs from cold report")
	}
	coldJSON, err := json.Marshal(cold)
	if err != nil {
		t.Fatal(err)
	}
	warmJSON, err := json.Marshal(warm)
	if err != nil {
		t.Fatal(err)
	}
	if string(coldJSON) != string(warmJSON) {
		t.Error("warm report JSON differs from cold report JSON")
	}
	if cold.TestedTests == 0 {
		t.Error("cold run executed no tests; resume test is vacuous")
	}
}

// TestResumeAcrossMethods: Table 3's methods share one corpus, profile set,
// and PMC database — running a second method against the same state misses
// only the generate+execute stage.
func TestResumeAcrossMethods(t *testing.T) {
	opts := stateTestOptions(t)
	if _, err := Run(opts); err != nil {
		t.Fatal(err)
	}

	other, ok := MethodByName("Random pairing")
	if !ok {
		t.Fatal("method Random pairing not registered")
	}
	opts.Method = other
	h0, m0 := counters()
	if _, err := Run(opts); err != nil {
		t.Fatal(err)
	}
	h1, m1 := counters()
	if hits := h1 - h0; hits != 3 {
		t.Errorf("second method recorded %d hits, want 3 (fuzz, profile, identify)", hits)
	}
	if misses := m1 - m0; misses != 1 {
		t.Errorf("second method recorded %d misses, want 1 (execute)", misses)
	}
}

// TestStageKeysWorkerInvariant pins the cache-invalidation contract:
// Options.Workers and Options.StateDir are pure performance/placement knobs
// and must not change any stage key; seed, fuzz budget, corpus cap, kernel
// version, test budget, and trials must.
func TestStageKeysWorkerInvariant(t *testing.T) {
	base := DefaultOptions()
	base.Seed = 9
	mk := func(mut func(*Options)) *Pipeline {
		opts := base
		if mut != nil {
			mut(&opts)
		}
		// Key derivation reads only Opts; skip the kernel boot.
		return &Pipeline{Opts: opts}
	}
	ref := mk(nil)
	cd := store.Key("some", "corpus")
	pd := store.Key("some", "profiles")
	sd := store.Key("some", "pmcs")
	type keys struct{ fuzz, profile, identify, report store.Digest }
	keysOf := func(p *Pipeline) keys {
		return keys{p.fuzzKey(), p.profileKey(cd), p.identifyKey(pd), p.reportKey(cd, sd, base.TestBudget)}
	}
	refKeys := keysOf(ref)

	for _, workers := range []int{0, 1, 4, 32} {
		p := mk(func(o *Options) { o.Workers = workers; o.StateDir = "/somewhere/else" })
		if keysOf(p) != refKeys {
			t.Errorf("workers=%d changed a stage key; worker count must not invalidate caches", workers)
		}
	}

	if mk(func(o *Options) { o.Seed++ }).fuzzKey() == refKeys.fuzz {
		t.Error("seed change did not invalidate fuzz key")
	}
	if mk(func(o *Options) { o.FuzzBudget++ }).fuzzKey() == refKeys.fuzz {
		t.Error("fuzz budget change did not invalidate fuzz key")
	}
	if mk(func(o *Options) { o.CorpusCap++ }).fuzzKey() == refKeys.fuzz {
		t.Error("corpus cap change did not invalidate fuzz key")
	}
	other := mk(func(o *Options) { o.Version = "5.3.10" })
	if other.fuzzKey() == refKeys.fuzz || other.profileKey(cd) == refKeys.profile {
		t.Error("kernel version change did not invalidate fuzz/profile keys")
	}
	if mk(func(o *Options) { o.Trials++ }).reportKey(cd, sd, base.TestBudget) == refKeys.report {
		t.Error("trials change did not invalidate report key")
	}
	if ref.reportKey(cd, sd, base.TestBudget+1) == refKeys.report {
		t.Error("test budget change did not invalidate report key")
	}
	m, _ := MethodByName("Random pairing")
	if mk(func(o *Options) { o.Method = m }).reportKey(cd, sd, base.TestBudget) == refKeys.report {
		t.Error("method change did not invalidate report key")
	}

	// Digest-linked chaining: different input artifact content → different
	// downstream keys.
	if ref.profileKey(store.Key("other", "corpus")) == refKeys.profile {
		t.Error("corpus content change did not invalidate profile key")
	}
	if ref.identifyKey(store.Key("other", "profiles")) == refKeys.identify {
		t.Error("profiles content change did not invalidate identify key")
	}
}

// TestResumeCorruptArtifacts: flipping bits in every stored object must
// yield diagnostics and a transparent re-run — same report, no panic, and a
// store that heals so the following run resumes cleanly again.
func TestResumeCorruptArtifacts(t *testing.T) {
	opts := stateTestOptions(t)
	first, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}

	objects := filepath.Join(opts.StateDir, "objects")
	damaged := 0
	err = filepath.Walk(objects, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)/2] ^= 0x20
		damaged++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if damaged == 0 {
		t.Fatal("no artifacts on disk to corrupt")
	}

	c0 := obs.C(obs.MStoreCorrupt).Value()
	second, err := Run(opts)
	if err != nil {
		t.Fatalf("run over corrupted store failed: %v", err)
	}
	if got := obs.C(obs.MStoreCorrupt).Value() - c0; got == 0 {
		t.Error("corruption went undetected (store.corrupt counter unchanged)")
	}
	if !reflect.DeepEqual(normalizeTimings(second), normalizeTimings(first)) {
		t.Error("re-run over corrupted store produced a different report")
	}

	// The corrupt files were discarded and rewritten: the next run is warm.
	h0, _ := counters()
	third, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := counters(); hits-h0 != 4 {
		t.Errorf("store did not heal: %d hits on post-corruption run, want 4", hits-h0)
	}
	if !reflect.DeepEqual(normalizeTimings(third), normalizeTimings(first)) {
		t.Error("healed store returned a different report")
	}
}

// TestResumeIgnoresTruncatedStore: an empty or half-written state directory
// behaves like a cold start.
func TestResumeIgnoresTruncatedStore(t *testing.T) {
	opts := stateTestOptions(t)
	// Pre-seed the store with a truncated stage memo under a random name to
	// prove stray files are harmless.
	if err := os.MkdirAll(filepath.Join(opts.StateDir, "stages"), 0o755); err != nil {
		t.Fatal(err)
	}
	junk := filepath.Join(opts.StateDir, "stages", store.Key("junk").String())
	if err := os.WriteFile(junk, []byte("SBAR\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(opts); err != nil {
		t.Fatal(err)
	}
}

// TestResumeLeavesRetiredSnapshotsAlone: a state dir an earlier binary
// used holds artifacts of two retired kinds, each with its memo entry: SBPI
// snapshots (store kind 7, filed under objects/pmcindex/, keyed by
// identify-chain entries) and the SBTS campaign time-series (kind 6,
// objects/timeseries/, keyed by version and seed). Nothing looks them up
// any more: a warm run hits all four stages, returns the cold report,
// discards nothing as corrupt, and creates, rewrites or deletes no file in
// the state dir — the leftovers included.
func TestResumeLeavesRetiredSnapshotsAlone(t *testing.T) {
	opts := stateTestOptions(t)
	cold, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(opts.StateDir)
	if err != nil {
		t.Fatal(err)
	}
	// plant files payload as a retired kind, under the objects/ directory
	// name the binaries that wrote it used (Put files an unnamed kind under
	// objects/kind<N>), with a memo entry under the key keyOf derives.
	plant := func(kind store.Kind, dir string, payload []byte, keyOf func(store.Digest) store.Digest) {
		d, err := st.Put(kind, payload)
		if err != nil {
			t.Fatal(err)
		}
		objects := filepath.Join(opts.StateDir, "objects")
		if err := os.Rename(filepath.Join(objects, kind.String()), filepath.Join(objects, dir)); err != nil {
			t.Fatal(err)
		}
		if err := st.PutStage(keyOf(d), store.StageResult{Kind: kind, Out: d}); err != nil {
			t.Fatal(err)
		}
	}
	plant(store.Kind(7), "pmcindex", []byte("SBPI\x02 an aggregate no decoder is left for"),
		func(d store.Digest) store.Digest { return store.Key(keyPrefix, "identify-chain", "batch="+d.String()) })
	// A one-sample version-2 SBTS series under the key those binaries gave
	// this campaign's (version, seed).
	plant(store.Kind(6), "timeseries", append([]byte("SBTS\x02\x01"), bytes.Repeat([]byte{2}, 12)...),
		func(store.Digest) store.Digest {
			return store.Key(keyPrefix, "timeseries", "series-codec=2",
				fmt.Sprintf("version=%s", opts.Version), fmt.Sprintf("seed=%d", opts.Seed))
		})

	before := stateFiles(t, opts.StateDir)
	h0, _ := counters()
	c0 := obs.C(obs.MStoreCorrupt).Value()
	warm, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if h1, _ := counters(); h1-h0 != 4 {
		t.Errorf("warm run over an old state dir recorded %d stage hits, want 4", h1-h0)
	}
	if got := obs.C(obs.MStoreCorrupt).Value() - c0; got != 0 {
		t.Errorf("warm run discarded %d artifacts as corrupt, want 0", got)
	}
	if !reflect.DeepEqual(normalizeMetrics(warm), normalizeMetrics(cold)) {
		t.Error("warm report over an old state dir differs from the cold report")
	}
	after := stateFiles(t, opts.StateDir)
	for path, f := range after {
		if g, ok := before[path]; !ok {
			t.Errorf("warm run created %s", path)
		} else if g != f {
			t.Errorf("warm run changed %s", path)
		}
	}
	for path := range before {
		if _, ok := after[path]; !ok {
			t.Errorf("warm run deleted %s", path)
		}
	}
}

// stateFile is what a warm run must leave alone of one state-dir file
// (its bytes, so its size too).
type stateFile struct {
	mtime   time.Time
	content string
}

// stateFiles maps every regular file under dir, by path relative to dir.
func stateFiles(t *testing.T, dir string) map[string]stateFile {
	t.Helper()
	files := make(map[string]stateFile)
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		files[rel] = stateFile{info.ModTime(), string(b)}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestStageKeysGolden pins the on-disk contract a deployed state dir
// depends on: every memo key and every memo-entry meta encoding, for fixed
// options and fixed input digests, as computed at the commit before the
// typed stage memo replaced the per-stage load/save pairs. The resume tests
// run cold and warm under one binary, so a refactor that reorders a
// store.Key part (or renames a meta field) would orphan every existing
// state dir with all of them green; this one fails. reportKey and
// feedbackKeys[0] were re-pinned when incidental adoption began skipping
// planned clusters (adoptionPart): a stage-4 report stored before that
// must not be served (TestParentStage4MemosNotServed). The "bytes" rows pin
// the artifacts themselves: the SHA-256 of each binary format's encoding of
// goldenArtifacts' inputs, recorded before the codecs moved onto one byte
// reader (internal/wire), since a round-trip test passes under any
// self-consistent format.
func TestStageKeysGolden(t *testing.T) {
	opts := DefaultOptions()
	opts.Seed = 9
	opts.Feedback = true
	cd := store.Key("golden", "corpus")
	fd := store.Key("golden", "profiles")
	pd := store.Key("golden", "pmcs")
	p := &Pipeline{Opts: opts, corpusDigest: cd, pmcDigest: pd}
	triageKey, err := p.triageKey(11, IssueRecord{
		Test:  sched.ConcurrentTest{Pair: pmc.Pair{Writer: 1, Reader: 2}},
		Repro: &sched.ReproState{Seed: 42, Trial: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	art := goldenArtifacts(t)
	sum := func(b []byte) string {
		d := sha256.Sum256(b)
		return hex.EncodeToString(d[:])
	}
	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, c := range []struct{ name, got, want string }{
		{"fuzzKey", p.fuzzKey().String(), "4540fcdf5fbe30241f31defe0a1ab72ea813d58ffbac831b240d8fd109672ac0"},
		{"profileKey", p.profileKey(cd).String(), "583a68ec96ad2d8e6959da0cbdb245136e03a899cd7259accfef022997c6de58"},
		{"identifyKey", p.identifyKey(fd).String(), "98c8d44fe7c7d276bf8992ef2708238f98ce918b265c52a04f611d020671a036"},
		{"reportKey", p.reportKey(cd, pd, opts.TestBudget).String(), "1696c5e2789e9c79e05020ff9d43928710aace23ec5fdb72d7879468d5529f3b"},
		{"feedbackKeys[0]", p.feedbackKeys(opts.TestBudget, 4)[0].String(), "551a65f3d765527afbba9a779779cee0c5f3db6945444a85c7bf67ed63ab9f7d"},
		{"triageKey", triageKey.String(), "774c1e55f31e3c0451000edc723f7fd921290f89b969597e073fd12c3ad208ed"},
		{"fuzzMeta", marshal(fuzzMeta{CorpusSize: 1, FuzzExecutions: 2, FuzzTimeNs: 3}), `{"corpus_size":1,"fuzz_executions":2,"fuzz_time_ns":3}`},
		{"profileMeta", marshal(profileMeta{ProfiledAccesses: 4, ProfileTimeNs: 5}), `{"profiled_accesses":4,"profile_time_ns":5}`},
		{"identifyMeta", marshal(identifyMeta{DistinctPMCs: 6, PMCCombinations: 7, IdentifyTimeNs: 8}), `{"distinct_pmcs":6,"pmc_combinations":7,"identify_time_ns":8}`},
		{"TriageSummary", marshal(&TriageSummary{Signature: "sig", Bundle: "b0", Stats: triage.Stats{Replays: 9, DecisionsOrig: 10, DecisionsMin: 1}}), `{"signature":"sig","bundle":"b0","stats":{"replays":9,"decisions_orig":10,"decisions_min":1,"switches_orig":0,"switches_min":0,"writer_calls_orig":0,"writer_calls_min":0,"reader_calls_orig":0,"reader_calls_min":0}}`},
		{"SBCO bytes", sum(art.corpus), "99c36fa6c5d0db876625b7878547f29844d60cb350a460379648b3608d6ef63f"},
		{"SBPS bytes", sum(art.profiles), "1c355170e69fc405d484889ab983e8e1ed649071ca04ed9755d31e70e71cb786"},
		{"SBPM bytes", sum(art.pmcs), "1131cdcc27510c9eb90b8ab3881858dabf62f557c5025fa15f16a5907c70803c"},
		{"outcome bytes", sum(art.outcome), "980753d47c0977ddc79c7a3640b1739ed1ad2373bffb360b3d016d141ceb4a9b"},
		{"SBAR bytes", sum(art.envelope), "0f30bea22bf73b139ab0d1911c12b772279a3276e1ab4c075d28bf7b4ad2f479"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s — stored state dirs written before this change would no longer resume", c.name, c.got, c.want)
		}
	}
}

// goldenBytes holds each stored or shipped binary format's encoding of one
// small hand-built input, the bytes TestStageKeysGolden pins.
type goldenBytes struct{ corpus, profiles, pmcs, outcome, envelope []byte }

// goldenArtifacts encodes the pinned inputs. Between them they reach every
// branch of every encoder: a ResultArg, trace rows with locks and the
// atomic, marked, stack and RCU flags and a backwards address delta,
// DFLeader marks, PMCs with several pairs, an outcome with issues and a
// Repro, and one SBAR envelope. Each binary artifact must also decode and
// re-encode to the same bytes.
func goldenArtifacts(t *testing.T) goldenBytes {
	t.Helper()
	c := corpus.NewCorpus()
	c.Add(&corpus.Prog{Calls: []corpus.Call{
		{Nr: kernel.SysSocketNr, Args: []corpus.Arg{corpus.Const(2), corpus.Const(1), corpus.Const(0)}},
		{Nr: kernel.SysConnectNr, Args: []corpus.Arg{corpus.Result(0), corpus.Const(1 << 40)}},
		{Nr: kernel.SysCloseNr},
	}})
	c.Add(&corpus.Prog{})

	var accs trace.Block
	accs.Record(1, 0xdeadbeef, trace.Write, 0x10040, 8, 0x1122334455667788, true, false, false, false, trace.InternLocks([]uint64{0x900, 0x880}))
	accs.Record(2, 7, trace.Read, 0x10000, 4, 3, false, true, true, true, trace.InternLocks(nil))
	accs.Record(0xFFFF, 1<<20, trace.Read, 0x20000, 1, 0, false, false, false, true, trace.InternLocks([]uint64{0x900}))
	profiles := []pmc.Profile{
		{TestID: 3, Accesses: accs, DFLeader: map[int]bool{0: true, 1: false, 2: true}},
		{TestID: 0, DFLeader: map[int]bool{}},
	}

	wk := pmc.Key{Ins: 0xdeadbeef, Addr: 0x10040, Size: 8, Val: 0x1122334455667788}
	rk := pmc.Key{Ins: 7, Addr: 0x10040, Size: 4, Val: 3}
	set := pmc.NewSet()
	set.TotalCombinations = 9
	for _, e := range []*pmc.Entry{
		{PMC: pmc.PMC{Write: wk, Read: rk, DFLeader: true}, Pairs: []pmc.Pair{{Writer: 1, Reader: 2}, {Writer: 1, Reader: 2}, {Writer: 4, Reader: 0}}, PairCount: 5},
		{PMC: pmc.PMC{Write: wk, Read: rk}, Pairs: []pmc.Pair{{Writer: 0, Reader: 1}}, PairCount: 1},
		{PMC: pmc.PMC{Write: rk, Read: wk}, PairCount: 3},
	} {
		set.Entries[e.PMC] = e
	}

	o := sched.Outcome{
		Trials: 24, Exercised: true, ExercisedTrial: 2, ExposedTrial: -1,
		Issues: []detect.Issue{
			{Kind: detect.KindDataRace, Desc: "race: w ↔ r", WriteIns: 0xdeadbeef, ReadIns: 7, BugID: 4, Harmful: true, Torn: true},
			{Kind: detect.KindPanic, Desc: "BUG: x", BugID: -3},
		},
		IssueTrials: []int{5, 23},
		Switches:    300, Steps: 1 << 20, NewCoverPairs: 6, NewSegments: 7,
		Repro: &sched.ReproState{
			Seed: -42, Trial: 5,
			PMCs:  []pmc.PMC{{Write: wk, Read: rk, DFLeader: true}, {Write: rk, Read: wk}},
			Flags: []sched.AccessSig{{Kind: trace.Write, Ins: 9, Addr: 1 << 63, Size: 2}},
			Flips: []int{0, 17, 1000},
		},
	}

	var out goldenBytes
	roundTrip := func(name string, c codec[any], v any) []byte {
		b, err := c.encode(v)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		back, err := c.decode(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if again, err := c.encode(back); err != nil || !bytes.Equal(again, b) {
			t.Fatalf("%s: decode and re-encode changed the bytes (%v)", name, err)
		}
		return b
	}
	out.corpus = roundTrip("corpus", anyCodec(corpusCodec), c)
	out.profiles = roundTrip("profiles", anyCodec(profilesCodec), profiles)
	out.pmcs = roundTrip("PMC set", anyCodec(pmcSetCodec), set)
	out.outcome = o.Encode(nil)
	var back sched.Outcome
	if err := back.Decode(out.outcome); err != nil || !bytes.Equal(back.Encode(nil), out.outcome) {
		t.Fatalf("outcome: decode and re-encode changed the bytes (%v)", err)
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d, err := st.Put(store.KindPMCs, out.pmcs)
	if err != nil {
		t.Fatal(err)
	}
	if out.envelope, err = os.ReadFile(filepath.Join(st.Dir(), "objects", store.KindPMCs.String(), d.String())); err != nil {
		t.Fatal(err)
	}
	return out
}

// anyCodec erases a codec's artifact type.
func anyCodec[T any](c codec[T]) codec[any] {
	return codec[any]{c.kind, c.noun,
		func(v any) ([]byte, error) { return c.encode(v.(T)) },
		func(b []byte) (any, error) { return c.decode(b) },
	}
}

// TestParentStage4MemosNotServed: a state dir written before incidental
// adoption skipped the PMCs of planned clusters holds reports explored
// under the old rule. Stored under the key strings that binary used — the
// execute memo's and the first feedback round's "no-incidental=false"
// part, and the campaign memo's "report-v2" — a marked report is not
// served; stored under this binary's keys the same report is, so the keys
// are all that differs.
func TestParentStage4MemosNotServed(t *testing.T) {
	stale := func(p *Pipeline) *Report {
		r := p.NewReport()
		r.Notes = []string{"stored by an older binary"}
		return r
	}
	served := func(r *Report) bool { return slices.Contains(r.Notes, "stored by an older binary") }
	// staged returns a pipeline on a fresh state dir with stages 1–3 run and
	// their artifacts stored.
	staged := func(t *testing.T, feedback bool) (*Pipeline, Options) {
		opts := stateTestOptions(t)
		opts.Feedback = feedback
		p, err := OpenPipeline(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		r := p.NewReport()
		p.BuildCorpus(r)
		if err := p.ProfileAll(r); err != nil {
			t.Fatal(err)
		}
		p.IdentifyPMCs(r)
		return p, opts
	}
	// parentKey is a stage-4 key as the older binary built it: parts up to
	// the adoption part, "no-incidental=false", then tail.
	parentKey := func(p *Pipeline, stage string, opts Options, mid []string, tail ...string) store.Digest {
		cd, pd := p.stage4Inputs(stage)
		m := opts.Method
		parts := []string{keyPrefix, stage, "corpus=" + cd.String(), "pmcs=" + pd.String(),
			fmt.Sprintf("version=%s", opts.Version), fmt.Sprintf("seed=%d", opts.Seed),
			fmt.Sprintf("method=%d/%s/%s/%d", m.Kind, m.Name, m.Strategy.Name, m.Order),
			fmt.Sprintf("budget=%d", opts.TestBudget)}
		parts = append(parts, mid...)
		parts = append(parts, fmt.Sprintf("trials=%d", opts.Trials), detectPart(opts.Detect), "no-incidental=false")
		return store.Key(append(parts, tail...)...)
	}
	keyName := map[bool]string{false: "parent's", true: "current"}
	check := func(t *testing.T, key string, r *Report, err error, current bool) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if served(r) != current {
			t.Errorf("a report stored under the %s key was served: %v, want %v", key, served(r), current)
		}
	}
	t.Run("execute", func(t *testing.T) {
		for _, current := range []bool{false, true} {
			p, opts := staged(t, false)
			key := parentKey(p, "execute", opts, nil, "feedback=false/0")
			if current {
				cd, pd := p.stage4Inputs("execute")
				key = p.reportKey(cd, pd, opts.TestBudget)
			}
			saveMemo(p, "execute", key, reportCodec, stale(p), nil)
			r, err := Run(opts)
			check(t, keyName[current], r, err, current)
		}
	})
	t.Run("feedback", func(t *testing.T) {
		for _, current := range []bool{false, true} {
			p, opts := staged(t, true)
			rounds := p.feedbackRounds()
			key := parentKey(p, "feedback-round", opts, []string{fmt.Sprintf("rounds=%d", rounds)},
				"prev="+store.Digest{}.String(), "round=0")
			if current {
				key = p.feedbackKeys(opts.TestBudget, rounds)[0]
			}
			payload, err := reportCodec.encode(stale(p))
			if err != nil {
				t.Fatal(err)
			}
			credits := make([]int64, len(cluster.Clusters(p.PMCs, opts.Method.Strategy)))
			saveMemo(p, "feedback", key, roundCodec, &feedbackRoundState{Credits: credits, Report: payload}, nil)
			r, err := Run(opts)
			check(t, keyName[current], r, err, current)
		}
	})
	t.Run("campaign", func(t *testing.T) {
		for _, current := range []bool{false, true} {
			spec := smallSpec("stale", 5)
			manifest, err := spec.Manifest()
			if err != nil {
				t.Fatal(err)
			}
			key := store.Key(campaignKeyPrefix, "report-v2", string(manifest))
			if current {
				key = (&Campaign{manifest: manifest}).reportKey()
			}
			dir := t.TempDir()
			p, err := OpenPipeline(Options{StateDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			saveMemo(p, "campaign", key, reportCodec, stale(p), nil)
			p.Close()
			reg := queue.NewRegistry(queue.Options{})
			c, err := StartCampaign(spec, CampaignEnv{Registry: reg, StateDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			r, err := c.Wait()
			reg.Close()
			check(t, keyName[current], r, err, current)
		}
	})
}

// TestStoreAttachedChangesNothing is the differential test for the one
// memo: every stage runs the same code with or without a store, so the
// same options with and without StateDir must give the same report — and
// only the stored run may touch the stage-cache counters. Stage 3 has one
// shape too: either arm's identify miss is exactly one AddBatch, over a
// profile set large enough that per-16-profile batching would show.
func TestStoreAttachedChangesNothing(t *testing.T) {
	batches := obs.C(obs.MIncrBatches)
	for _, feedback := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			opts := stateTestOptions(t)
			opts.Feedback = feedback
			opts.Workers = workers
			b0 := batches.Value()
			stored, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.StateDir = ""
			b1 := batches.Value()
			h0, m0 := counters()
			bare, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if h1, m1 := counters(); h1 != h0 || m1 != m0 {
				t.Errorf("feedback=%t workers=%d: store-less run moved the stage-cache counters (hits +%d, misses +%d)",
					feedback, workers, h1-h0, m1-m0)
			}
			if stored.CorpusSize < 16 {
				t.Fatalf("corpus has %d profiles, need >= 16 for batching to be visible; raise stateTestOptions' CorpusCap", stored.CorpusSize)
			}
			if withStore, without := b1-b0, batches.Value()-b1; withStore != 1 || without != 1 {
				t.Errorf("feedback=%t workers=%d: identification ran %d batches with a store and %d without, want 1 and 1",
					feedback, workers, withStore, without)
			}
			if !reflect.DeepEqual(normalizeTimings(stored), normalizeTimings(bare)) {
				t.Errorf("feedback=%t workers=%d: report with a store differs from the report without one:\n%+v\nvs\n%+v",
					feedback, workers, normalizeTimings(stored), normalizeTimings(bare))
			}
			if stored.TestedTests == 0 {
				t.Error("no tests executed; comparison is vacuous")
			}
		}
	}
}
