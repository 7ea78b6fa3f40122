package triage

import (
	"encoding/json"
	"errors"
	"fmt"

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
