package core

import (
	"encoding/json"
	"fmt"

	"snowboard/internal/obs"
	"snowboard/internal/sched"
	"snowboard/internal/store"
	"snowboard/internal/triage"
)

// TriageSummary is the per-finding outcome of the post-detect triage
// stage, embedded in Report JSON so every crash-level finding carries its
// minimized repro bundle digest.
type TriageSummary struct {
	// Signature is the stable crash-site + channel key (triage.Signature.Key).
	Signature string `json:"signature"`
	// Bundle is the hex content digest of the SBRB bundle; replay with
	// `sbrepro -state <dir> -min <digest>`.
	Bundle string       `json:"bundle"`
	Stats  triage.Stats `json:"stats"`
}

var (
	mTriageFindings = obs.C(obs.MTriageFindings)
	mTriageReplays  = obs.C(obs.MTriageReplays)
	mTriageCached   = obs.C(obs.MTriageCached)
)

// triageKey is the per-finding memo key: a `-state` resume skips findings
// whose minimized bundle is already stored. The finding's identity is the
// digest of its test + replay state, so any change to what was found
// invalidates the memo; seed and detector options ride along because they
// change what a replay detects.
func (p *Pipeline) triageKey(id int, rec IssueRecord) (store.Digest, error) {
	blob, err := json.Marshal(struct {
		Test  sched.ConcurrentTest `json:"test"`
		State *sched.ReproState    `json:"state"`
	}{rec.Test, rec.Repro})
	if err != nil {
		return store.Digest{}, err
	}
	return store.Key(keyPrefix, "triage",
		fmt.Sprintf("sbrb-format=%d", triage.FormatVersion),
		fmt.Sprintf("version=%s", p.Opts.Version),
		fmt.Sprintf("bug=%d", id),
		detectPart(p.Opts.Detect),
		"finding="+store.Sum(blob).String(),
	), nil
}

// TriageReport runs the post-detect triage stage over the report's
// crash-level findings: each finding with recorded repro state is
// minimized (schedule ddmin + syscall dropping), packaged as an SBRB
// bundle, and annotated on its IssueRecord.
//
// Determinism: findings are processed serially in BugID order, and the
// bundle digest is the content hash of a canonical encoding (identical with
// or without a store) — attaching a store never changes what a run
// computes, only whether it can skip recomputing it.
func (p *Pipeline) TriageReport(r *Report) {
	// A record carries Repro exactly when its discovering exploration ended
	// in a crash-level trial (the recorded Issue itself may be the data-race
	// shadow observed in that same trial), so Repro presence — not the
	// record's kind — is the crash-level gate. Minimize re-derives the
	// crash-level signature from the replay.
	var ids []int
	for _, id := range r.BugIDs() {
		rec := r.Issues[id]
		if rec.Triage == nil && rec.Repro != nil {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return
	}
	span := obs.StartSpan("stage.triage")
	minimized := 0
	for _, id := range ids {
		rec := r.Issues[id]
		// A finding whose key cannot be derived stays zero-keyed: it is
		// minimized and its bundle stored, but not memoized.
		key, _ := p.triageKey(id, rec)
		var sum TriageSummary
		if _, out, ok := loadMemo(p, "triage", key, bundleCodec, &sum); ok {
			obs.Diag.Printf("stage triage: cache hit for issue #%d (bundle %s)", id, out.Short())
			mTriageCached.Inc()
			rec.Triage = &sum
			r.Issues[id] = rec
			minimized++
			continue
		}
		res, err := triage.Minimize(p.Env, triage.Finding{Test: rec.Test, State: rec.Repro, BugID: id},
			triage.Options{Detect: p.Opts.Detect})
		if err != nil {
			note := fmt.Sprintf("triage: issue #%d: %v", id, err)
			obs.Diag.Printf("stage triage: %s", note)
			r.Notes = append(r.Notes, note)
			continue
		}
		b := &triage.Bundle{
			Format:    triage.FormatVersion,
			Kernel:    p.Opts.Version,
			Writer:    res.Test.Writer,
			Reader:    res.Test.Reader,
			Hint:      res.Test.Hint,
			Extra:     res.Test.Extra,
			State:     res.State,
			Signature: res.Signature,
			BugID:     id,
			Finding:   rec.Issue.Desc,
			Stats:     res.Stats,
		}
		payload, err := triage.Encode(b)
		if err != nil {
			note := fmt.Sprintf("triage: issue #%d: encode bundle: %v", id, err)
			obs.Diag.Printf("stage triage: %s", note)
			r.Notes = append(r.Notes, note)
			continue
		}
		digest := store.Sum(payload)
		rec.Triage = &TriageSummary{Signature: res.Signature.Key(), Bundle: digest.String(), Stats: res.Stats}
		r.Issues[id] = rec
		minimized++
		mTriageFindings.Inc()
		mTriageReplays.Add(int64(res.Stats.Replays))
		saveMemo(p, "triage", key, bundleCodec, payload, rec.Triage)
		obs.EmitTrace(p.trace, obs.EvTriageMinimized,
			obs.A("bug", id),
			obs.A("signature", res.Signature.Key()),
			obs.A("bundle", digest.Short()),
			obs.A("decisions", res.Stats.DecisionsMin),
			obs.A("replays", res.Stats.Replays))
	}
	p.stageDone("triage", false, span.End(), obs.A("minimized", minimized))
}
