package live

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/obs"
	"repro/internal/obs/comm"
)

// Session owns every instrument of one run: it builds them, serves them
// live, and writes them out when the run ends, so a trace, a comm matrix
// and a metrics scrape always describe the same run. Nil fields are off;
// the job structs take them as they are.
type Session struct {
	Tracer  *obs.Tracer
	Metrics *obs.Registry
	Board   *obs.Board
	Comm    *comm.Tracker
	Flight  *obs.FlightRecorder
	// FlightPath is where the flight recorder dumps on deadlock, panic or
	// SIGQUIT; no file appears on a clean run.
	FlightPath string
	Profile    *obs.PhaseProfiler

	dir string
	srv *Server
}

// Open starts a session. With dir set every instrument is on — tracer,
// registry, board, comm tracker, flight recorder and per-phase profiler —
// and Close writes trace.json.gz, comm.json.gz and metrics.prom into dir
// next to the profiler's cpu.*.pprof and heap.pprof. With addr set the
// board and registry are on and the live status server listens on addr.
// With both empty every field is nil and Close does nothing.
func Open(dir, addr string) (*Session, error) {
	s := &Session{dir: dir}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("live: obs dir: %w", err)
		}
		s.Tracer = obs.NewTracer()
		s.Comm = comm.NewTracker()
		s.Flight = obs.NewFlightRecorder(obs.DefaultFlightEvents)
		s.FlightPath = filepath.Join(dir, "flight.json.gz")
	}
	if dir != "" || addr != "" {
		s.Metrics = obs.NewRegistry()
		s.Board = obs.NewBoard()
	}
	if addr != "" {
		s.srv = New(s.Board, s.Tracer, s.Metrics, s.Comm)
		if err := s.srv.Start(addr); err != nil {
			return nil, err
		}
	}
	if dir != "" {
		p, err := obs.StartPhaseProfiler(dir)
		if err != nil {
			s.srv.Close()
			return nil, err
		}
		s.Profile = p
	}
	return s, nil
}

// Addr is the live server's bound address, or "" when none was asked for.
func (s *Session) Addr() string { return s.srv.Addr() }

// Close ends the session: it stops the profiler, writes the trace, the comm
// matrix and the metrics exposition into the directory, then closes the
// live server. It is meant to run before the caller reports the run's own
// error, so a failed run still leaves everything to diagnose it by; every
// step runs and the errors are joined.
func (s *Session) Close() error {
	_, err := s.Profile.Stop()
	errs := []error{err}
	if s.dir != "" {
		errs = append(errs,
			s.writeFile("trace.json.gz", s.Tracer.WriteChromeTrace),
			s.writeFile("comm.json.gz", s.Comm.Matrix().WriteJSON),
			s.writeFile("metrics.prom", func(w io.Writer) error { return writeMetrics(w, s.Metrics, s.Comm) }))
	}
	errs = append(errs, s.srv.Close())
	return errors.Join(errs...)
}

func (s *Session) writeFile(name string, write func(io.Writer) error) error {
	f, err := obs.CreateOutput(filepath.Join(s.dir, name))
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetrics is the Prometheus exposition of a run: the registry followed
// by the comm matrix's link totals. The live /metrics route and the
// session's metrics file both render through it. Either source may be nil.
// Mid-run the matrix is a live partial view; Prometheus counters are
// cumulative anyway, so serving the merged snapshot is exact.
func writeMetrics(w io.Writer, reg *obs.Registry, commT *comm.Tracker) error {
	if err := reg.Snapshot().WritePrometheus(w); err != nil {
		return err
	}
	return commT.Matrix().WritePrometheus(w)
}
