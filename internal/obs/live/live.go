// Package live is the opt-in live status server: an HTTP endpoint that
// publishes point-in-time snapshots of a running job's per-rank state —
// current phase, in-flight span, task progress, KV/spill/exchange bytes,
// epoch number — sampled lock-cheaply from the same obs.Board the layers
// update and the MPI deadlock watchdog prints, so a hung run is diagnosable
// from the outside before the timeout fires.
//
// Routes:
//
//	/status      JSON snapshot ({"uptime_ms":..., "ranks":[...]})
//	/status.txt  the same snapshot as one line per rank (watch -n1 friendly)
//	/metrics     Prometheus text exposition: the registry's counters,
//	             gauges and histograms plus comm-matrix link totals
//	             (404 when neither source is on) — the control-plane
//	             groundwork for mrblastd
//
// Session is the one place a run's instruments are built, served and
// written out. cmd/mrblast and cmd/mrsom open one from their two
// observability flags: -obs DIR turns every instrument on and leaves the
// run's files in DIR under fixed names — trace.json.gz (Chrome trace),
// comm.json.gz (comm matrix), metrics.prom (the same exposition /metrics
// serves), cpu.*.pprof and heap.pprof (per-phase profiles), and
// flight.json.gz (only if the run deadlocks, panics or gets SIGQUIT);
// -status ADDR serves the routes above on ADDR.
package live

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/comm"
)

// Snapshot is the JSON body served at /status.
type Snapshot struct {
	// UptimeMS is milliseconds since the server started.
	UptimeMS int64 `json:"uptime_ms"`
	// Ranks is each rank's current state, indexed by rank.
	Ranks []obs.RankState `json:"ranks"`
}

// Server samples a Board (and optionally a Tracer for in-flight spans and a
// Registry for /metrics) on demand; it holds no state of its own beyond the
// start time, so it can be created before the job starts and keeps serving
// after it finishes.
type Server struct {
	board   *obs.Board
	tracer  *obs.Tracer
	metrics *obs.Registry
	comm    *comm.Tracker
	start   time.Time

	ln   net.Listener
	http *http.Server
}

// New creates a server over the given sources. tracer, metrics and commT
// may each be nil: snapshots then omit in-flight spans, and /metrics 404s
// when every source it draws from is off.
func New(board *obs.Board, tracer *obs.Tracer, metrics *obs.Registry, commT *comm.Tracker) *Server {
	return &Server{board: board, tracer: tracer, metrics: metrics, comm: commT, start: time.Now()}
}

// Snapshot samples the board (and tracer) right now.
func (s *Server) Snapshot() Snapshot {
	ranks := s.board.Snapshot(s.tracer)
	if ranks == nil {
		ranks = []obs.RankState{}
	}
	return Snapshot{
		UptimeMS: time.Since(s.start).Milliseconds(),
		Ranks:    ranks,
	}
}

// Handler returns the route mux, usable directly in tests without a socket.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Snapshot())
	})
	text := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		snap := s.Snapshot()
		fmt.Fprintf(w, "uptime %v\n", time.Duration(snap.UptimeMS)*time.Millisecond)
		for _, st := range snap.Ranks {
			fmt.Fprintf(w, "rank %d: %s\n", st.Rank, st)
		}
	}
	mux.HandleFunc("/status.txt", text)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		text(w, r)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if s.metrics == nil && s.comm == nil {
			http.Error(w, "metrics disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w, s.metrics, s.comm)
	})
	return mux
}

// Start binds addr (e.g. ":8080", or ":0" for an ephemeral port) and serves
// in the background until Close. The bound address is available from Addr.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("live: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.http = &http.Server{Handler: s.Handler()}
	go s.http.Serve(ln)
	return nil
}

// Addr reports the bound address ("" before Start or on a nil server).
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener; in-flight requests are abandoned. A nil or
// never-started server closes as a no-op.
func (s *Server) Close() error {
	if s == nil || s.http == nil {
		return nil
	}
	return s.http.Close()
}
