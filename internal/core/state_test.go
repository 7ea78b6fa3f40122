package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

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
// the corpus and the report and nothing of stages 2–3, and a second Run
// with the same options — a fresh Pipeline, same -state — hits both memos
// without profiling or identifying, and returns a report deep-equal to the
// cold one (byte-identical as JSON, metrics included, because the full
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
	if misses := m1 - m0; misses != 2 {
		t.Errorf("cold run recorded %d stage misses, want 2 (fuzz, execute)", misses)
	}
	for _, dir := range []string{"profiles", "pmcs", "kind2", "kind3"} {
		if _, err := os.Stat(filepath.Join(opts.StateDir, "objects", dir)); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("cold run stored objects/%s (stat: %v); stages 2–3 must store nothing", dir, err)
		}
	}

	profiled, batches := obs.C(obs.MProfileTests), obs.C(obs.MIncrBatches)
	p0, b0 := profiled.Value(), batches.Value()
	warm, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	h2, m2 := counters()
	if hits := h2 - h1; hits != 2 {
		t.Errorf("warm run recorded %d stage hits, want 2 (fuzz, execute)", hits)
	}
	if misses := m2 - m1; misses != 0 {
		t.Errorf("warm run recorded %d stage misses, want 0", misses)
	}
	if p, b := profiled.Value()-p0, batches.Value()-b0; p != 0 || b != 0 {
		t.Errorf("warm run profiled %d tests and identified %d batches, want 0 and 0", p, b)
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

// TestResumeAcrossMethods: Table 3's methods share one stored corpus —
// running a second method against the same state hits the fuzz memo and
// misses only the generate+execute stage.
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
	if hits := h1 - h0; hits != 1 {
		t.Errorf("second method recorded %d hits, want 1 (fuzz)", hits)
	}
	if misses := m1 - m0; misses != 1 {
		t.Errorf("second method recorded %d misses, want 1 (execute)", misses)
	}
}

// TestStageKeysWorkerInvariant pins the cache-invalidation contract:
// Options.Workers and Options.StateDir are pure performance/placement knobs
// and must not change any stage key; seed, fuzz budget, corpus cap, kernel
// version, test budget, and trials must. No stage-4 key carries the PMC
// set's content, so each must change with everything that derives it: the
// corpus, the kernel version and both PMC options.
func TestStageKeysWorkerInvariant(t *testing.T) {
	base := DefaultOptions()
	base.Seed = 9
	cd := store.Key("some", "corpus")
	mk := func(mut func(*Options)) *Pipeline {
		opts := base
		if mut != nil {
			mut(&opts)
		}
		// Key derivation reads only Opts and the corpus digest; skip the
		// kernel boot.
		return &Pipeline{Opts: opts, corpusDigest: cd}
	}
	ref := mk(nil)
	type keys struct{ fuzz, report, feedback store.Digest }
	keysOf := func(p *Pipeline) keys {
		return keys{p.fuzzKey(), p.reportKey(p.corpusDigest, base.TestBudget), p.feedbackKeys(base.TestBudget, 4)[0]}
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
	if mk(func(o *Options) { o.Version = "5.3.10" }).fuzzKey() == refKeys.fuzz {
		t.Error("kernel version change did not invalidate fuzz key")
	}
	if mk(func(o *Options) { o.Trials++ }).reportKey(cd, base.TestBudget) == refKeys.report {
		t.Error("trials change did not invalidate report key")
	}
	if ref.reportKey(cd, base.TestBudget+1) == refKeys.report {
		t.Error("test budget change did not invalidate report key")
	}
	m, _ := MethodByName("Random pairing")
	if mk(func(o *Options) { o.Method = m }).reportKey(cd, base.TestBudget) == refKeys.report {
		t.Error("method change did not invalidate report key")
	}

	// What derives the PMC set: the corpus, the kernel version and the PMC
	// options.
	otherCorpus := mk(nil)
	otherCorpus.corpusDigest = store.Key("other", "corpus")
	for name, p := range map[string]*Pipeline{
		"corpus content":      otherCorpus,
		"kernel version":      mk(func(o *Options) { o.Version = "5.3.10" }),
		"PMC.AllowSelfPairs":  mk(func(o *Options) { o.PMC.AllowSelfPairs = !o.PMC.AllowSelfPairs }),
		"PMC.SkipValueFilter": mk(func(o *Options) { o.PMC.SkipValueFilter = !o.PMC.SkipValueFilter }),
	} {
		k := keysOf(p)
		if k.report == refKeys.report {
			t.Errorf("%s change did not invalidate the report key", name)
		}
		if k.feedback == refKeys.feedback {
			t.Errorf("%s change did not invalidate the first feedback round's key", name)
		}
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
	if hits, _ := counters(); hits-h0 != 2 {
		t.Errorf("store did not heal: %d hits on post-corruption run, want 2", hits-h0)
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
// used holds artifacts of four retired kinds, each with its memo entry: the
// SBPS profile set and the SBPM PMC set (kinds 2 and 3, filed under
// objects/profiles/ and objects/pmcs/, keyed by the profile and identify
// memos those binaries kept), SBPI snapshots (kind 7, objects/pmcindex/,
// keyed by identify-chain entries) and the SBTS campaign time-series (kind
// 6, objects/timeseries/, keyed by version and seed). Nothing looks them up
// any more: a warm run hits only fuzz and execute, returns the cold report,
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
	plant := func(kind store.Kind, dir string, payload []byte, keyOf func(store.Digest) store.Digest) store.Digest {
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
		return d
	}
	corpora := st.List(store.KindCorpus)
	if len(corpora) != 1 {
		t.Fatalf("cold run stored %d corpora, want 1", len(corpora))
	}
	// An empty version-1 SBPS profile set under the profile key those
	// binaries gave this corpus, and an SBPM set under the identify key they
	// gave that profile set.
	profiles := plant(store.Kind(2), "profiles", []byte("SBPS\x01\x00"), func(store.Digest) store.Digest {
		return store.Key(keyPrefix, "profile", "profiles-codec=1", "trace-codec=1",
			fmt.Sprintf("version=%s", opts.Version), "corpus="+corpora[0].String())
	})
	plant(store.Kind(3), "pmcs", pmc.AppendSet(nil, pmc.NewSet()), func(store.Digest) store.Digest {
		return store.Key(keyPrefix, "identify", "set-codec=1", "profiles="+profiles.String(),
			fmt.Sprintf("self-pairs=%t", opts.PMC.AllowSelfPairs), fmt.Sprintf("skip-value-filter=%t", opts.PMC.SkipValueFilter))
	})
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
	if h1, _ := counters(); h1-h0 != 2 {
		t.Errorf("warm run over an old state dir recorded %d stage hits, want 2 (fuzz, execute)", h1-h0)
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
// must not be served (TestParentStage4MemosNotServed). They were re-pinned
// again when stages 2–3 stopped being stored and pmcPart took the place of
// the PMC set's content digest. The two feedback rows were re-pinned once
// more when the loop stopped mutating schedules (loopPart), and the
// one-shot reportKey row was added then, as its parent commit computed it:
// a one-shot key did not move. The two feedback rows moved once more, with
// loopPart, when the loop stopped allocating rounds by segment yield, and
// again when CoverPairs began counting the run's distinct pairs and a round
// began storing its pair set (345989d0… → a798dbc1…, e14161b4… →
// e3d78e9a…). The
// "bytes" rows pin the artifacts themselves: the SHA-256 of each binary
// format's encoding of goldenArtifacts' inputs, recorded before the codecs
// moved onto one byte reader (internal/wire), since a round-trip test
// passes under any self-consistent format; the SBAR row, a corpus in its
// envelope, was recorded before stages 2–3 stopped being stored.
func TestStageKeysGolden(t *testing.T) {
	opts := DefaultOptions()
	opts.Seed = 9
	opts.Feedback = true
	cd := store.Key("golden", "corpus")
	p := &Pipeline{Opts: opts, corpusDigest: cd}
	oneShot := &Pipeline{Opts: opts, corpusDigest: cd}
	oneShot.Opts.Feedback = false
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
		{"reportKey", oneShot.reportKey(cd, opts.TestBudget).String(), "b680861aebbbbf89612346426dc32ff78f2c2fc5196d6842923d8ad475a536a4"},
		{"reportKey, feedback", p.reportKey(cd, opts.TestBudget).String(), "a798dbc1c68f80ae5a3dfb2e229326f28624c1efb6e9a48eb820ee26cb5a5d1d"},
		{"feedbackKeys[0]", p.feedbackKeys(opts.TestBudget, 4)[0].String(), "e3d78e9ac6dd4e6e6dc69f23fc0d144066a1e0e5cf27c902ae17a3d76f257076"},
		{"triageKey", triageKey.String(), "774c1e55f31e3c0451000edc723f7fd921290f89b969597e073fd12c3ad208ed"},
		{"fuzzMeta", marshal(fuzzMeta{CorpusSize: 1, FuzzExecutions: 2, FuzzTimeNs: 3}), `{"corpus_size":1,"fuzz_executions":2,"fuzz_time_ns":3}`},
		{"TriageSummary", marshal(&TriageSummary{Signature: "sig", Bundle: "b0", Stats: triage.Stats{Replays: 9, DecisionsOrig: 10, DecisionsMin: 1}}), `{"signature":"sig","bundle":"b0","stats":{"replays":9,"decisions_orig":10,"decisions_min":1,"switches_orig":0,"switches_min":0,"writer_calls_orig":0,"writer_calls_min":0,"reader_calls_orig":0,"reader_calls_min":0}}`},
		{"SBCO bytes", sum(art.corpus), "99c36fa6c5d0db876625b7878547f29844d60cb350a460379648b3608d6ef63f"},
		{"SBPM bytes", sum(art.pmcs), "1131cdcc27510c9eb90b8ab3881858dabf62f557c5025fa15f16a5907c70803c"},
		{"outcome bytes", sum(art.outcome), "980753d47c0977ddc79c7a3640b1739ed1ad2373bffb360b3d016d141ceb4a9b"},
		{"SBAR bytes", sum(art.envelope), "0aa63619285eb92ddd1cbd92fda75d3dde8b5247082d506e2f4fc298ed8dd00a"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s — stored state dirs written before this change would no longer resume", c.name, c.got, c.want)
		}
	}
}

// goldenBytes holds each stored or shipped binary format's encoding of one
// small hand-built input, the bytes TestStageKeysGolden pins.
type goldenBytes struct{ corpus, pmcs, outcome, envelope []byte }

// goldenArtifacts encodes the pinned inputs. Between them they reach every
// branch of every encoder: a ResultArg, PMCs with several pairs, an
// outcome with issues and a Repro, and one SBAR envelope. Each binary
// artifact must also decode and re-encode to the same bytes.
func goldenArtifacts(t *testing.T) goldenBytes {
	t.Helper()
	c := corpus.NewCorpus()
	c.Add(&corpus.Prog{Calls: []corpus.Call{
		{Nr: kernel.SysSocketNr, Args: []corpus.Arg{corpus.Const(2), corpus.Const(1), corpus.Const(0)}},
		{Nr: kernel.SysConnectNr, Args: []corpus.Arg{corpus.Result(0), corpus.Const(1 << 40)}},
		{Nr: kernel.SysCloseNr},
	}})
	c.Add(&corpus.Prog{})

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
	out.corpus = roundTrip(t, "corpus", c, corpus.Append, corpus.Parse)
	out.pmcs = roundTrip(t, "PMC set", set, pmc.AppendSet, pmc.ParseSet)
	out.outcome = o.Encode(nil)
	var dec sched.Decoder
	if back, err := dec.Decode(out.outcome); err != nil || !bytes.Equal(back.Encode(nil), out.outcome) {
		t.Fatalf("outcome: decode and re-encode changed the bytes (%v)", err)
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d, err := st.Put(store.KindCorpus, out.corpus)
	if err != nil {
		t.Fatal(err)
	}
	if out.envelope, err = os.ReadFile(filepath.Join(st.Dir(), "objects", store.KindCorpus.String(), d.String())); err != nil {
		t.Fatal(err)
	}
	return out
}

// roundTrip encodes v, and fails unless the bytes decode and re-encode to
// themselves.
func roundTrip[T any](t *testing.T, name string, v T, app func([]byte, T) []byte, parse func([]byte) (T, error)) []byte {
	t.Helper()
	b := app(nil, v)
	back, err := parse(b)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if !bytes.Equal(app(nil, back), b) {
		t.Fatalf("%s: decode and re-encode changed the bytes", name)
	}
	return b
}

// staleReport is a report marked as one an older binary stored.
func staleReport(p *Pipeline) *Report {
	r := p.NewReport()
	r.Notes = []string{"stored by an older binary"}
	return r
}

// checkStale fails unless r, the report of a run over a state dir holding
// a staleReport, was served the stale one exactly when it was stored under
// the current key.
func checkStale(t *testing.T, r *Report, err error, current bool) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if served := slices.Contains(r.Notes, "stored by an older binary"); served != current {
		key := map[bool]string{false: "parent's", true: "current"}[current]
		t.Errorf("a report stored under the %s key was served: %v, want %v", key, served, current)
	}
}

// stagedPipeline returns a pipeline on a fresh state dir with stages 1–3
// run and its corpus stored.
func stagedPipeline(t *testing.T, feedback bool) (*Pipeline, Options) {
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

// storeStaleRound stores a staleReport as the first feedback round under
// key.
func storeStaleRound(t *testing.T, p *Pipeline, key store.Digest) {
	payload, err := reportCodec.encode(staleReport(p))
	if err != nil {
		t.Fatal(err)
	}
	saveMemo(p, "feedback", key, roundCodec, &feedbackRoundState{Report: payload}, nil)
}

// runCampaignOver stores a staleReport as spec's campaign memo under key
// in a fresh state dir and runs the campaign there.
func runCampaignOver(t *testing.T, spec CampaignSpec, key store.Digest) (*Report, error) {
	dir := t.TempDir()
	p, err := OpenPipeline(Options{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	saveMemo(p, "campaign", key, reportCodec, staleReport(p), nil)
	p.Close()
	reg := queue.NewRegistry(queue.Options{})
	defer reg.Close()
	c, err := StartCampaign(spec, CampaignEnv{Registry: reg, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return c.Wait()
}

// TestParentStage4MemosNotServed: a state dir written before incidental
// adoption skipped the PMCs of planned clusters holds reports explored
// under the old rule, and one written before queue workers adopted and
// tracked coverage as local runs do holds campaign reports explored
// without either. Stored under the key strings those binaries used — the
// execute memo's and the first feedback round's "no-incidental=false"
// part, and the campaign memo's "report-v2" and both forms of its
// "report-v3" — a marked report is not served; stored under this binary's
// keys the same report is, so the keys are all that differs.
func TestParentStage4MemosNotServed(t *testing.T) {
	// parentKey is a stage-4 key as the older binary built it: parts up to
	// the adoption part, "no-incidental=false", then tail.
	parentKey := func(p *Pipeline, stage string, opts Options, mid []string, tail ...string) store.Digest {
		pd := store.Sum(pmc.AppendSet(nil, p.PMCs))
		m := opts.Method
		parts := []string{keyPrefix, stage, "corpus=" + p.stage4Corpus(stage).String(), "pmcs=" + pd.String(),
			fmt.Sprintf("version=%s", opts.Version), fmt.Sprintf("seed=%d", opts.Seed),
			fmt.Sprintf("method=%d/%s/%s/%d", m.Kind, m.Name, m.Strategy.Name, m.Order),
			fmt.Sprintf("budget=%d", opts.TestBudget)}
		parts = append(parts, mid...)
		parts = append(parts, fmt.Sprintf("trials=%d", opts.Trials), detectPart(opts.Detect), "no-incidental=false")
		return store.Key(append(parts, tail...)...)
	}
	t.Run("execute", func(t *testing.T) {
		for _, current := range []bool{false, true} {
			p, opts := stagedPipeline(t, false)
			key := parentKey(p, "execute", opts, nil, "feedback=false/0")
			if current {
				key = p.reportKey(p.stage4Corpus("execute"), opts.TestBudget)
			}
			saveMemo(p, "execute", key, reportCodec, staleReport(p), nil)
			r, err := Run(opts)
			checkStale(t, r, err, current)
		}
	})
	t.Run("feedback", func(t *testing.T) {
		for _, current := range []bool{false, true} {
			p, opts := stagedPipeline(t, true)
			rounds := p.feedbackRounds()
			key := parentKey(p, "feedback-round", opts, []string{fmt.Sprintf("rounds=%d", rounds)},
				"prev="+store.Digest{}.String(), "round=0")
			if current {
				key = p.feedbackKeys(opts.TestBudget, rounds)[0]
			}
			storeStaleRound(t, p, key)
			r, err := Run(opts)
			checkStale(t, r, err, current)
		}
	})
	t.Run("campaign", func(t *testing.T) {
		for _, feedback := range []bool{false, true} {
			spec := smallSpec("stale", 5)
			spec.Feedback = feedback
			manifest, err := spec.Manifest()
			if err != nil {
				t.Fatal(err)
			}
			current := (&Campaign{Spec: spec, manifest: manifest}).reportKey()
			// The v3 memo held reports queue workers explored without
			// adoption or coverage, under one key form per spec kind.
			v3 := store.Key(campaignKeyPrefix, "report-v3", string(manifest))
			if feedback {
				v3 = store.Key(campaignKeyPrefix, "report-v3", loopPart, string(manifest))
			}
			for _, key := range []store.Digest{store.Key(campaignKeyPrefix, "report-v2", string(manifest)), v3, current} {
				r, err := runCampaignOver(t, spec, key)
				checkStale(t, r, err, key == current)
			}
		}
	})
}

// TestMutatingLoopMemosNotServed: a state dir written while the feedback
// loop also mutated schedules, while it allocated rounds by segment yield,
// or while its CoverPairs added each round's distinct pairs, holds
// feedback reports and rounds that loop built. Stored under the key
// strings those binaries used — the execute memo's "feedback=true/4" part
// and its "feedback=true/4/<loop>", round keys without loopPart and with
// each older <loop>, and the campaign memo's plain "report-v3" and its
// "report-v4" with each older <loop> — a marked report is not served to a
// feedback run; stored under this binary's keys it is. A one-shot run's
// keys did not change, so its memos still serve (the "execute" and
// "campaign" cases of TestParentStage4MemosNotServed).
func TestMutatingLoopMemosNotServed(t *testing.T) {
	// The loopParts of older binaries, by the key index i that uses them;
	// i == 0 is the key without one, and i == len(loops)+1 the current key.
	loops := []string{"loop=rounds+composing", "loop=walk+composing"}
	current := len(loops) + 1
	t.Run("execute", func(t *testing.T) {
		for i := range current + 1 {
			p, opts := stagedPipeline(t, true)
			key := p.reportKey(p.stage4Corpus("execute"), opts.TestBudget)
			if i < current {
				m := opts.Method
				part := fmt.Sprintf("feedback=true/%d", p.feedbackRounds())
				if i > 0 {
					part += "/" + loops[i-1]
				}
				key = store.Key(keyPrefix, "execute", "corpus="+p.stage4Corpus("execute").String(), pmcPart(opts.PMC),
					fmt.Sprintf("version=%s", opts.Version), fmt.Sprintf("seed=%d", opts.Seed),
					fmt.Sprintf("method=%d/%s/%s/%d", m.Kind, m.Name, m.Strategy.Name, m.Order),
					fmt.Sprintf("budget=%d", opts.TestBudget), fmt.Sprintf("trials=%d", opts.Trials),
					detectPart(opts.Detect), adoptionPart, part)
			}
			saveMemo(p, "execute", key, reportCodec, staleReport(p), nil)
			r, err := Run(opts)
			checkStale(t, r, err, i == current)
		}
	})
	t.Run("feedback", func(t *testing.T) {
		for i := range current + 1 {
			p, opts := stagedPipeline(t, true)
			rounds := p.feedbackRounds()
			key := p.feedbackKeys(opts.TestBudget, rounds)[0]
			if i < current {
				m := opts.Method
				parts := []string{keyPrefix, "feedback-round", "corpus=" + p.stage4Corpus("feedback").String(), pmcPart(opts.PMC),
					fmt.Sprintf("version=%s", opts.Version), fmt.Sprintf("seed=%d", opts.Seed),
					fmt.Sprintf("method=%d/%s/%s/%d", m.Kind, m.Name, m.Strategy.Name, m.Order),
					fmt.Sprintf("budget=%d", opts.TestBudget), fmt.Sprintf("rounds=%d", rounds),
					fmt.Sprintf("trials=%d", opts.Trials), detectPart(opts.Detect), adoptionPart}
				if i > 0 {
					parts = append(parts, loops[i-1])
				}
				key = store.Key(append(parts, "prev="+store.Digest{}.String(), "round=0")...)
			}
			storeStaleRound(t, p, key)
			r, err := Run(opts)
			checkStale(t, r, err, i == current)
		}
	})
	t.Run("campaign", func(t *testing.T) {
		for i := range current + 1 {
			spec := smallSpec("stale-feedback", 5)
			spec.Feedback = true
			manifest, err := spec.Manifest()
			if err != nil {
				t.Fatal(err)
			}
			key := (&Campaign{Spec: spec, manifest: manifest}).reportKey()
			switch {
			case i == 0:
				key = store.Key(campaignKeyPrefix, "report-v3", string(manifest))
			case i < current:
				key = store.Key(campaignKeyPrefix, "report-v4", loops[i-1], string(manifest))
			}
			r, err := runCampaignOver(t, spec, key)
			checkStale(t, r, err, i == current)
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
