package triage

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"snowboard/internal/corpus"
	"snowboard/internal/kernel"
	"snowboard/internal/pmc"
	"snowboard/internal/sched"
	"snowboard/internal/store"
)

// FormatVersion is the SBRB repro-bundle layout version. Bump it whenever
// the Bundle JSON shape or replay semantics change; readers report older
// (or newer) bundles as stale, never as corrupt.
const FormatVersion = 1

// Decode failure classes. Stale means the bundle is internally consistent
// but written for a different format version — re-run triage to refresh
// it. Corrupt means the bytes cannot be a bundle at all.
var (
	ErrStale   = errors.New("triage: repro bundle format version mismatch")
	ErrCorrupt = errors.New("triage: corrupt repro bundle")
)

// Bundle is the canonical SBRB repro artifact: everything needed to replay
// a minimized crash finding deterministically anywhere — the kernel
// version, the two minimized test programs, the scheduling hint, the
// minimized replay state, and the crash signature the replay must
// reproduce. Bundles are stored content-addressed under store.KindRepro;
// `sbrepro -state <dir> -min <digest>` replays them.
type Bundle struct {
	Format    int               `json:"format"`
	Kernel    kernel.Version    `json:"kernel"`
	Writer    *corpus.Prog      `json:"writer"`
	Reader    *corpus.Prog      `json:"reader"`
	Hint      *pmc.PMC          `json:"hint,omitempty"`
	Extra     []pmc.PMC         `json:"extra,omitempty"`
	State     *sched.ReproState `json:"state"`
	Signature Signature         `json:"signature"`
	BugID     int               `json:"bug_id,omitempty"`
	Finding   string            `json:"finding,omitempty"`
	Stats     Stats             `json:"stats"`
}

// Test reassembles the bundle's concurrent test.
func (b *Bundle) Test() sched.ConcurrentTest {
	return sched.ConcurrentTest{Writer: b.Writer, Reader: b.Reader, Hint: b.Hint, Extra: b.Extra}
}

// Validate checks the bundle is replayable.
func (b *Bundle) Validate() error {
	if b.Format != FormatVersion {
		return fmt.Errorf("format %d, want %d", b.Format, FormatVersion)
	}
	if b.Writer == nil || b.Reader == nil {
		return errors.New("missing test programs")
	}
	if err := b.Writer.Validate(); err != nil {
		return fmt.Errorf("writer: %w", err)
	}
	if err := b.Reader.Validate(); err != nil {
		return fmt.Errorf("reader: %w", err)
	}
	if b.State == nil {
		return errors.New("missing replay state")
	}
	if b.Signature.IsZero() {
		return errors.New("missing crash signature")
	}
	return nil
}

// Encode serializes the bundle canonically. The encoding is deterministic,
// so store.Sum of the result is a stable content digest whether or not a
// store is attached.
func Encode(b *Bundle) ([]byte, error) {
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("triage: encode bundle: %w", err)
	}
	return json.Marshal(b)
}

// Decode parses a bundle, distinguishing stale from corrupt input: a
// readable JSON object with the wrong (or missing) format version is
// ErrStale; undecodable bytes or a bundle failing validation are
// ErrCorrupt. Both are errors.Is-matchable.
func Decode(data []byte) (*Bundle, error) {
	var probe struct {
		Format *int `json:"format"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if probe.Format == nil {
		return nil, fmt.Errorf("%w: no format field (pre-SBRB-%d writer)", ErrStale, FormatVersion)
	}
	if *probe.Format != FormatVersion {
		return nil, fmt.Errorf("%w: bundle format %d, this binary reads %d", ErrStale, *probe.Format, FormatVersion)
	}
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return &b, nil
}

// LoadBundle fetches and decodes a bundle by digest. Store-level
// corruption (bad envelope/checksum) surfaces as store.ErrCorrupt; decode
// failures as ErrStale/ErrCorrupt.
func LoadBundle(s *store.Store, d store.Digest) (*Bundle, error) {
	data, err := s.Get(store.KindRepro, d)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// IndexEntry is one signature's row in the cross-campaign dedup index: the
// canonical (first-registered) bundle and every campaign that observed the
// signature. The index is a fleet-level registry: campaigns register into
// it but never consult it to decide what to compute, so attaching a store
// cannot change what a run reports.
type IndexEntry struct {
	Signature Signature `json:"signature"`
	// Bundle is the canonical SBRB digest (hex) — the first registered
	// minimized repro for this signature.
	Bundle string `json:"bundle"`
	// Campaigns lists the distinct campaign labels that observed the
	// signature, sorted.
	Campaigns []string `json:"campaigns"`
	// Count is the total number of registrations folded into this row.
	Count int `json:"count"`
}

// registerMu serialises Register. One lock for every store root: each
// pipeline opens its own *store.Store, and two paths can name one root.
var registerMu sync.Mutex

// indexKey addresses a signature's index row. Deliberately excludes seed,
// trial, and campaign identity so different campaigns land on the same row.
func indexKey(sig Signature) store.Digest {
	return store.Key("snowboard-triage-v1", "signature",
		fmt.Sprintf("format=%d", FormatVersion), sig.Kind, sig.Site, sig.Channel)
}

// Register folds one observation of sig into the dedup index. The first
// registration pins the canonical bundle; later ones only fold their
// campaign label and bump the count. Returns the updated row and whether
// the signature was fresh (first ever registration).
//
// The row update is a read-modify-write, so registrations are serialised
// within the process (registerMu): sbd's campaigns triage into one store
// concurrently, and two of them registering one signature must not drop a
// label or a count. Across processes sharing a state dir it stays
// best-effort — the last writer's row wins.
func Register(s *store.Store, sig Signature, bundle store.Digest, campaign string) (IndexEntry, bool, error) {
	registerMu.Lock()
	defer registerMu.Unlock()
	entry, ok := Lookup(s, sig)
	fresh := !ok
	if fresh {
		entry = IndexEntry{Signature: sig, Bundle: bundle.String()}
	}
	entry.Count++
	if campaign != "" {
		found := false
		for _, c := range entry.Campaigns {
			if c == campaign {
				found = true
				break
			}
		}
		if !found {
			entry.Campaigns = append(entry.Campaigns, campaign)
			sort.Strings(entry.Campaigns)
		}
	}
	meta, err := json.Marshal(entry)
	if err != nil {
		return entry, fresh, fmt.Errorf("triage: index row: %w", err)
	}
	canonical, err := store.ParseDigest(entry.Bundle)
	if err != nil {
		return entry, fresh, fmt.Errorf("triage: index row: %w", err)
	}
	err = s.PutStage(indexKey(sig), store.StageResult{Kind: store.KindRepro, Out: canonical, Meta: meta})
	return entry, fresh, err
}

// Lookup fetches a signature's index row, if registered.
func Lookup(s *store.Store, sig Signature) (IndexEntry, bool) {
	res, err := s.GetStage(indexKey(sig))
	if err != nil {
		return IndexEntry{}, false
	}
	var entry IndexEntry
	if err := json.Unmarshal(res.Meta, &entry); err != nil {
		return IndexEntry{}, false
	}
	return entry, true
}
