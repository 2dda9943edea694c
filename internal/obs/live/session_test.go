package live

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/obs"
)

// TestSessionMetricsFileMatchesScrape: after a 2-rank run on a session's
// instruments, a live /metrics scrape taken before Close is a conformant
// exposition with the MPI and comm-matrix series, and the metrics file Close
// writes is byte-identical to it — both render through one function.
func TestSessionMetricsFileMatchesScrape(t *testing.T) {
	dir := t.TempDir()
	sess, err := Open(dir, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.RunWith(2, mpi.RunOptions{
		Trace: sess.Tracer, Metrics: sess.Metrics, Board: sess.Board, Comm: sess.Comm,
		Flight: sess.Flight, FlightPath: sess.FlightPath, Profile: sess.Profile,
	}, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 7, []byte("ping"))
		} else {
			c.Recv(0, 7)
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		sess.Close()
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + sess.Addr() + "/metrics")
	if err != nil {
		sess.Close()
		t.Fatalf("GET /metrics: %v", err)
	}
	scrape, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := sess.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	if err := obs.ValidatePrometheus(strings.NewReader(string(scrape))); err != nil {
		t.Fatalf("/metrics exposition not conformant: %v\n%s", err, scrape)
	}
	for _, want := range []string{"mpi_sends_total", "mpi_comm_bytes_total"} {
		if !strings.Contains(string(scrape), want) {
			t.Errorf("/metrics missing %s:\n%s", want, scrape)
		}
	}
	file, err := os.ReadFile(filepath.Join(dir, "metrics.prom"))
	if err != nil {
		t.Fatal(err)
	}
	if string(file) != string(scrape) {
		t.Errorf("metrics.prom differs from the live scrape:\nfile:\n%s\nscrape:\n%s", file, scrape)
	}
	for _, name := range []string{"trace.json.gz", "comm.json.gz", "heap.pprof"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("Close did not write %s: %v", name, err)
		}
	}
	if _, err := os.Stat(sess.FlightPath); !os.IsNotExist(err) {
		t.Errorf("clean run left a flight dump (stat err %v)", err)
	}
}

// TestSessionOff: with no directory and no address every instrument is off
// and Close writes nothing.
func TestSessionOff(t *testing.T) {
	sess, err := Open("", "")
	if err != nil {
		t.Fatal(err)
	}
	if sess.Tracer != nil || sess.Metrics != nil || sess.Board != nil || sess.Comm != nil ||
		sess.Flight != nil || sess.FlightPath != "" || sess.Profile != nil || sess.Addr() != "" {
		t.Errorf("empty session has instruments on: %+v", sess)
	}
	if err := sess.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}
