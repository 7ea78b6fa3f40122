package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// EventsPage is the JSON shape served at /events?since=N: the retained
// events after N plus the cursor for the next page.
type EventsPage struct {
	Since  uint64  `json:"since"`
	Next   uint64  `json:"next"` // pass back as ?since= to page
	Events []Event `json:"events"`
}

// EventsSince builds the /events page for the process-wide flight recorder.
func EventsSince(since uint64) EventsPage {
	return pageOf(since, Events.Since(since))
}

// EventsSinceTrace builds an /events page restricted to one campaign's
// trace. The cursor discipline is the same as EventsSince: Next is the
// last matching event's process-wide sequence number.
func EventsSinceTrace(trace string, since uint64) EventsPage {
	return pageOf(since, Events.SinceTrace(trace, since))
}

func pageOf(since uint64, evs []Event) EventsPage {
	next := since
	if n := len(evs); n > 0 {
		next = evs[n-1].Seq
	}
	return EventsPage{Since: since, Next: next, Events: evs}
}

// CoverageView is the JSON shape served at /coverage: the campaign
// time-series plus derived rates and plateau judgement.
type CoverageView struct {
	Samples   []Sample `json:"samples"`
	Rate      Rate     `json:"rate"`      // trailing-minute growth rates
	Overall   Rate     `json:"overall"`   // whole-series growth rates
	Plateaued bool     `json:"plateaued"` // no new pairs in the trailing minute
}

// CoverageNow builds the /coverage view from the DefaultSeries.
func CoverageNow() CoverageView {
	return CoverageView{
		Samples:   DefaultSeries.Samples(),
		Rate:      DefaultSeries.Rate(time.Minute),
		Overall:   DefaultSeries.Rate(0),
		Plateaued: DefaultSeries.Plateaued(time.Minute, 1),
	}
}

// CampaignView is the JSON shape served at /campaign: identity, live
// progress, and flight-recorder cursors for one campaign.
type CampaignView struct {
	Campaign *Campaign `json:"campaign"` // nil before the campaign starts
	Progress Progress  `json:"progress"`
	EventSeq uint64    `json:"event_seq"` // last assigned event sequence number
	Samples  int       `json:"samples"`   // time-series points retained
}

// CampaignNow builds the /campaign view.
func CampaignNow() CampaignView {
	return CampaignView{
		Campaign: CurrentCampaign(),
		Progress: ProgressNow(),
		EventSeq: Events.Seq(),
		Samples:  DefaultSeries.Len(),
	}
}

// Handler returns the introspection mux over the Default registry:
//
//	/metrics       Prometheus text exposition
//	/progress      JSON Progress snapshot
//	/events        flight-recorder events (?since=N pages by sequence number)
//	/coverage      campaign time-series with rates and plateau judgement
//	/campaign      campaign identity, live progress, recorder cursors
//	/debug/pprof/  runtime profiling
func Handler() http.Handler {
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = Default.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, ProgressNow())
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		since := uint64(0)
		if s := r.URL.Query().Get("since"); s != "" {
			n, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(w, "bad since: "+err.Error(), http.StatusBadRequest)
				return
			}
			since = n
		}
		writeJSON(w, EventsSince(since))
	})
	mux.HandleFunc("/coverage", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, CoverageNow())
	})
	mux.HandleFunc("/campaign", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, CampaignNow())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "snowboard introspection\n\n/metrics\n/progress\n/events\n/coverage\n/campaign\n/debug/pprof/\n")
	})
	return mux
}

// Server is a running introspection HTTP server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// StartHTTP serves the introspection handler on addr (e.g. ":0" or
// "127.0.0.1:8080") and returns immediately; the bound address is available
// via Addr.
func StartHTTP(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: Handler(), ReadHeaderTimeout: 5 * time.Second}}
	go func() {
		// Serve only returns on a fatal accept error (or deliberate
		// shutdown). Swallowing it silently leaves the process believing it
		// has an introspection endpoint it no longer has, so the failure is
		// surfaced on the diagnostic log and counted.
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			C(MObsServeErrors).Inc()
			Diag.Printf("obs: introspection server on %s stopped: %v", ln.Addr(), err)
		}
	}()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }
