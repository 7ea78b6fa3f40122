package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"snowboard/internal/core"
	"snowboard/internal/obs"
)

// server hosts the multi-tenant campaign set: submissions are idempotent
// by manifest digest, every campaign runs in the shared CampaignEnv, and
// the HTTP API layers campaign routes over the obs introspection handler.
type server struct {
	env core.CampaignEnv

	mu        sync.Mutex
	campaigns map[string]*core.Campaign
	order     []string // submission order, for stable listings
}

func newServer(env core.CampaignEnv) *server {
	return &server{env: env, campaigns: make(map[string]*core.Campaign)}
}

// submit starts (or joins) the campaign for spec. Submission is
// idempotent: the campaign ID is the manifest digest, so resubmitting
// byte-equivalent work returns the existing handle.
func (s *server) submit(spec core.CampaignSpec) (c *core.Campaign, created bool, err error) {
	id, err := spec.ID()
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.campaigns[id]; ok {
		return c, false, nil
	}
	c, err = core.StartCampaign(spec, s.env)
	if err != nil {
		return nil, false, err
	}
	s.campaigns[c.ID] = c
	s.order = append(s.order, c.ID)
	return c, true, nil
}

// resume re-submits every campaign manifest persisted under the state
// dir — called once at startup so a restarted server picks up all
// in-flight work. Completed campaigns land on their report memo and
// finish instantly; interrupted ones re-run from their stage memos.
func (s *server) resume() (int, error) {
	if s.env.StateDir == "" {
		return 0, nil
	}
	specs, err := core.LoadCampaignSpecs(s.env.StateDir)
	if err != nil {
		return 0, err
	}
	for _, spec := range specs {
		if _, _, err := s.submit(spec); err != nil {
			return 0, err
		}
	}
	return len(specs), nil
}

func (s *server) get(id string) *core.Campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.campaigns[id]
}

func (s *server) list() []core.CampaignStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]core.CampaignStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.campaigns[id].Status())
	}
	return out
}

// submitResponse is the POST /campaigns reply.
type submitResponse struct {
	ID    string `json:"id"`
	Trace string `json:"trace"`
	State string `json:"state"`
}

// campaignDetail is the GET /campaigns/<id> reply: live status plus the
// full report once the campaign finishes.
type campaignDetail struct {
	Status core.CampaignStatus `json:"status"`
	Report *core.Report        `json:"report,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// handler returns the control-plane mux: campaign routes first, the obs
// introspection surface (metrics, progress, process-wide events,
// coverage, pprof) for everything else.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/campaigns", s.handleCampaigns)
	mux.HandleFunc("/campaigns/", s.handleCampaign)
	mux.Handle("/", obs.Handler())
	return mux
}

// maxSpecBytes bounds a POST /campaigns body; a spec is a few hundred bytes.
const maxSpecBytes = 1 << 20

func (s *server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.list())
	case http.MethodPost:
		var spec core.CampaignSpec
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes)).Decode(&spec); err != nil {
			code := http.StatusBadRequest
			if errors.As(err, new(*http.MaxBytesError)) {
				code = http.StatusRequestEntityTooLarge
			}
			http.Error(w, "bad campaign spec: "+err.Error(), code)
			return
		}
		c, created, err := s.submit(spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		code := http.StatusOK
		if created {
			code = http.StatusCreated
		}
		writeJSON(w, code, submitResponse{ID: c.ID, Trace: c.Trace, State: c.Status().State})
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/campaigns/")
	id, sub, _ := strings.Cut(rest, "/")
	c := s.get(id)
	if c == nil {
		http.Error(w, "unknown campaign "+id, http.StatusNotFound)
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, campaignDetail{Status: c.Status(), Report: c.Report()})
	case sub == "events" && r.Method == http.MethodGet:
		since := uint64(0)
		if q := r.URL.Query().Get("since"); q != "" {
			n, err := strconv.ParseUint(q, 10, 64)
			if err != nil {
				http.Error(w, "bad since: "+err.Error(), http.StatusBadRequest)
				return
			}
			since = n
		}
		writeJSON(w, http.StatusOK, obs.EventsSinceTrace(c.Trace, since))
	case sub == "pause" && r.Method == http.MethodPost:
		c.Pause()
		writeJSON(w, http.StatusOK, c.Status())
	case sub == "resume" && r.Method == http.MethodPost:
		c.Resume()
		writeJSON(w, http.StatusOK, c.Status())
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}
