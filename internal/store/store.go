// Package store is a versioned, checksummed, content-addressed on-disk
// artifact store for pipeline outputs. The paper's pipeline is inherently
// incremental — one 40-hour profiling pass over 129,876 sequential tests
// was reused across all eleven generation strategies of Table 3 (§5.4) —
// and every stage of this reproduction is a pure, bit-identical function
// of (inputs, options, seed), which makes sound memoization a matter of
// hashing: artifacts are addressed by the SHA-256 of their encoded bytes,
// and a stage memo index maps a digest of (stage name, input artifact
// digests, relevant options) to the digest of the stage's output.
//
// Layout under the store root:
//
//	objects/<kind>/<hex digest>   artifact payloads in the SBAR envelope
//	stages/<hex key digest>       stage memo entries (JSON in the envelope)
//
// Every file carries the envelope
//
//	magic "SBAR" | version u8 | kind u8 | payload len uvarint | payload |
//	sha256(payload) 32 bytes
//
// so truncation and bit flips are detected on read (ErrCorrupt), never
// silently decoded. Writes go through a temp file plus rename, so a killed
// run leaves either the old artifact or the new one — not a torn file.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"snowboard/internal/obs"
	"snowboard/internal/wire"
)

// Envelope constants.
const (
	envMagic   = "SBAR"
	envVersion = 1

	// maxPayload bounds a decoded payload claim; artifacts beyond this are
	// implausible and rejected before allocation.
	maxPayload = 1 << 32
)

// Kind tags the artifact type carried by an envelope.
type Kind uint8

// Artifact kinds.
const (
	// KindCorpus is an encoded sequential-test corpus (corpus.Append).
	KindCorpus Kind = iota + 1
	// KindProfiles is an encoded profile set (pmc.AppendProfiles).
	KindProfiles
	// KindPMCs is an encoded PMC database (pmc.AppendSet).
	KindPMCs
	// KindReport is a JSON-encoded core.Report.
	KindReport
	// KindStage is a stage memo entry (internal; lives under stages/).
	KindStage
	_ // 6 was the SBTS time-series kind (objects/timeseries); retired, never reuse
	_ // 7 was the SBPI snapshot kind (objects/pmcindex); retired, never reuse
	// KindFeedback is a JSON feedback-round checkpoint (core.RunFeedback):
	// per-cluster credits, cumulative segment coverage, pipeline cursors,
	// and the partial report after one budget-allocation round.
	KindFeedback
	// KindRepro is an SBRB minimized repro bundle (triage.Encode): the
	// self-contained, minimized, replayable artifact behind every
	// crash-level finding's bundle digest.
	KindRepro
	// KindCampaign is a canonical JSON campaign manifest (core.CampaignSpec):
	// the durable submission record a control-plane server enumerates on
	// restart to resume every in-flight campaign.
	KindCampaign
)

// String names the kind for paths and diagnostics.
func (k Kind) String() string {
	switch k {
	case KindCorpus:
		return "corpus"
	case KindProfiles:
		return "profiles"
	case KindPMCs:
		return "pmcs"
	case KindReport:
		return "report"
	case KindStage:
		return "stage"
	case KindFeedback:
		return "feedback"
	case KindRepro:
		return "repro"
	case KindCampaign:
		return "campaign"
	}
	return fmt.Sprintf("kind%d", uint8(k))
}

// ErrCorrupt reports an artifact file that failed envelope, checksum, or
// digest verification. Callers treat it as a cache miss and re-run the
// producing stage.
var ErrCorrupt = errors.New("store: corrupt artifact")

// ErrNotFound reports a missing artifact or stage entry.
var ErrNotFound = errors.New("store: not found")

// Store metrics: stage-level hits/misses are counted by the pipeline that
// owns the stage semantics; the store itself counts writes and detected
// corruption.
var (
	mWrites  = obs.C(obs.MStoreWrites)
	mBytes   = obs.C(obs.MStoreBytesWritten)
	mCorrupt = obs.C(obs.MStoreCorrupt)
)

// Digest is the SHA-256 content address of an artifact payload.
type Digest [sha256.Size]byte

// Sum computes the content address of a payload.
func Sum(payload []byte) Digest { return sha256.Sum256(payload) }

// String renders the digest as lowercase hex.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// Short renders the first 12 hex digits, for diagnostics.
func (d Digest) Short() string { return d.String()[:12] }

// IsZero reports whether the digest is the zero value (meaning "unknown").
func (d Digest) IsZero() bool { return d == Digest{} }

// ParseDigest parses a lowercase-hex digest string.
func ParseDigest(s string) (Digest, error) {
	var d Digest
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(d) {
		return Digest{}, fmt.Errorf("store: bad digest %q", s)
	}
	copy(d[:], b)
	return d, nil
}

// Key derives a stage memo key from an ordered list of parts (stage name,
// codec versions, input digests, option fields rendered as strings). Parts
// are length-prefixed before hashing so no two distinct part lists collide
// by concatenation.
func Key(parts ...string) Digest {
	h := sha256.New()
	var lenBuf [binary.MaxVarintLen64]byte
	for _, p := range parts {
		n := binary.PutUvarint(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:n])
		h.Write([]byte(p))
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// StageResult is one stage memo entry: the digest of the stage's output
// artifact plus a small JSON metadata fragment (report counters and
// timings) the pipeline restores on a cache hit.
type StageResult struct {
	Kind Kind            `json:"kind"`           // kind of the output artifact
	Out  Digest          `json:"-"`              // output artifact digest
	Meta json.RawMessage `json:"meta,omitempty"` // stage report fragment
}

// stageResultWire is the serialized form (digest as hex).
type stageResultWire struct {
	Kind Kind            `json:"kind"`
	Out  string          `json:"out"`
	Meta json.RawMessage `json:"meta,omitempty"`
}

// Store is an opened artifact store rooted at a directory. Methods are safe
// for concurrent use by independent processes: objects are content-addressed
// (writes of the same digest are idempotent) and all writes are
// temp-file+rename atomic.
type Store struct {
	dir string
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{"objects", "stages", "tmp"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

func (s *Store) objectPath(kind Kind, d Digest) string {
	return filepath.Join(s.dir, "objects", kind.String(), d.String())
}

func (s *Store) stagePath(key Digest) string {
	return filepath.Join(s.dir, "stages", key.String())
}

// envelope wraps payload in the SBAR framing.
func envelope(kind Kind, payload []byte) []byte {
	b := make([]byte, 0, len(envMagic)+2+binary.MaxVarintLen64+len(payload)+sha256.Size)
	b = append(b, envMagic...)
	b = append(b, envVersion, byte(kind))
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	sum := sha256.Sum256(payload)
	return append(b, sum[:]...)
}

// DecodeEnvelope parses and verifies one SBAR-framed artifact, returning
// its kind and payload, which aliases data. It never panics on arbitrary
// input; any framing, length, or checksum violation yields ErrCorrupt.
func DecodeEnvelope(data []byte) (Kind, []byte, error) {
	r := wire.NewFramed(data, envMagic, envVersion, ErrCorrupt)
	kind := Kind(r.Byte())
	plen := r.Uvarint()
	if plen > maxPayload {
		r.Fail("bad payload length")
	}
	payload := r.Bytes(int(plen))
	sum := r.Bytes(sha256.Size)
	if err := r.Done(); err != nil {
		return 0, nil, err
	}
	if sha256.Sum256(payload) != [sha256.Size]byte(sum) {
		return 0, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return kind, payload, nil
}

// writeAtomic lands data at path via a temp file and rename.
func (s *Store) writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Join(s.dir, "tmp"), "artifact-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Put stores payload as a content-addressed object and returns its digest.
// Re-putting identical content is a cheap no-op.
func (s *Store) Put(kind Kind, payload []byte) (Digest, error) {
	d := Sum(payload)
	path := s.objectPath(kind, d)
	if _, err := os.Stat(path); err == nil {
		return d, nil // content-addressed: existing object is this object
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return Digest{}, fmt.Errorf("store: %w", err)
	}
	if err := s.writeAtomic(path, envelope(kind, payload)); err != nil {
		return Digest{}, err
	}
	mWrites.Inc()
	mBytes.Add(int64(len(payload)))
	return d, nil
}

// Get loads and verifies a content-addressed object. A missing object
// returns ErrNotFound; a damaged one returns ErrCorrupt (and bumps the
// store.corrupt counter) so callers can fall back to re-running the
// producing stage. A damaged file is removed, so the re-running stage's Put
// writes a fresh object instead of tripping over the stat-based idempotency
// check — the store heals on the next run.
func (s *Store) Get(kind Kind, d Digest) ([]byte, error) {
	path := s.objectPath(kind, d)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s object %s", ErrNotFound, kind, d.Short())
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	gotKind, payload, err := DecodeEnvelope(data)
	if err != nil {
		return nil, s.discardCorrupt(path, fmt.Errorf("%s object %s: %w", kind, d.Short(), err))
	}
	if gotKind != kind {
		return nil, s.discardCorrupt(path, fmt.Errorf("%s object %s: %w: kind %s", kind, d.Short(), ErrCorrupt, gotKind))
	}
	if Sum(payload) != d {
		return nil, s.discardCorrupt(path, fmt.Errorf("%s object %s: %w: content digest mismatch", kind, d.Short(), ErrCorrupt))
	}
	return payload, nil
}

// discardCorrupt counts and removes a file that failed verification, so a
// later Put of the correct content lands a fresh copy.
func (s *Store) discardCorrupt(path string, err error) error {
	mCorrupt.Inc()
	if rmErr := os.Remove(path); rmErr == nil {
		obs.Diag.Printf("store: removed corrupt file %s (%v)", path, err)
	}
	return err
}

// List returns the digests of all objects of a kind, sorted, skipping
// files whose names do not parse as digests.
func (s *Store) List(kind Kind) []Digest {
	entries, err := os.ReadDir(filepath.Join(s.dir, "objects", kind.String()))
	if err != nil {
		return nil
	}
	var out []Digest
	for _, e := range entries {
		if d, err := ParseDigest(e.Name()); err == nil {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}

// PutStage records a stage memo entry: key → (output digest, metadata).
func (s *Store) PutStage(key Digest, res StageResult) error {
	payload, err := json.Marshal(stageResultWire{Kind: res.Kind, Out: res.Out.String(), Meta: res.Meta})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.writeAtomic(s.stagePath(key), envelope(KindStage, payload)); err != nil {
		return err
	}
	mWrites.Inc()
	mBytes.Add(int64(len(payload)))
	return nil
}

// GetStage looks up a stage memo entry. A missing entry returns
// ErrNotFound; a damaged one returns ErrCorrupt.
func (s *Store) GetStage(key Digest) (StageResult, error) {
	data, err := os.ReadFile(s.stagePath(key))
	if err != nil {
		if os.IsNotExist(err) {
			return StageResult{}, fmt.Errorf("%w: stage %s", ErrNotFound, key.Short())
		}
		return StageResult{}, fmt.Errorf("store: %w", err)
	}
	path := s.stagePath(key)
	kind, payload, err := DecodeEnvelope(data)
	if err != nil {
		return StageResult{}, s.discardCorrupt(path, fmt.Errorf("stage %s: %w", key.Short(), err))
	}
	if kind != KindStage {
		return StageResult{}, s.discardCorrupt(path, fmt.Errorf("stage %s: %w: kind %s", key.Short(), ErrCorrupt, kind))
	}
	var wire stageResultWire
	if err := json.Unmarshal(payload, &wire); err != nil {
		return StageResult{}, s.discardCorrupt(path, fmt.Errorf("stage %s: %w: %v", key.Short(), ErrCorrupt, err))
	}
	out, err := ParseDigest(wire.Out)
	if err != nil {
		return StageResult{}, s.discardCorrupt(path, fmt.Errorf("stage %s: %w: %v", key.Short(), ErrCorrupt, err))
	}
	return StageResult{Kind: wire.Kind, Out: out, Meta: wire.Meta}, nil
}
