package live

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/mrmpi"
	"repro/internal/obs"
	"repro/internal/obs/comm"
)

// getSnapshot polls the /status endpoint once and decodes it.
func getSnapshot(t *testing.T, addr string) Snapshot {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/status")
	if err != nil {
		t.Fatalf("GET /status: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /status: status %d", resp.StatusCode)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("GET /status: invalid JSON: %v", err)
	}
	return snap
}

// TestStatusEndpointDuringLiveRun is the live-telemetry acceptance test:
// during a 4-rank MapReduce run, polling the status endpoint returns valid
// JSON whose per-rank phases advance map → aggregate → convert → reduce and
// whose task counters reach done == total.
func TestStatusEndpointDuringLiveRun(t *testing.T) {
	const nranks, nmap = 4, 8
	board := obs.NewBoard()
	tracer := obs.NewTracer()
	srv := New(board, tracer, nil, nil)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Each phase method is followed by a Barrier, then rank 0 polls the
	// endpoint while every other rank holds at a second Barrier — so the
	// snapshot is taken at a quiescent point where all ranks must show the
	// phase just finished. The phases asserted live are recorded here and
	// checked after the run (rank 0 writes, later reads happen after
	// mpi.RunWith returns — no race).
	type observed struct {
		phase string
		snap  Snapshot
	}
	var seen []observed

	err := mpi.RunWith(nranks, mpi.RunOptions{Trace: tracer, Board: board}, func(c *mpi.Comm) error {
		mr := mrmpi.New(c)
		defer mr.Close()

		observe := func(phase string) error {
			c.Barrier() // everyone finished the phase method
			var err error
			if c.Rank() == 0 {
				snap := getSnapshot(t, srv.Addr())
				seen = append(seen, observed{phase: phase, snap: snap})
				if len(snap.Ranks) != nranks {
					err = fmt.Errorf("phase %s: snapshot has %d ranks, want %d", phase, len(snap.Ranks), nranks)
				}
			}
			c.Barrier() // nobody advances into the next phase until the poll is done
			return err
		}

		if _, err := mr.Map(nmap, func(itask int, kv *mrmpi.KeyValue) error {
			kv.Add([]byte(fmt.Sprintf("k%d", itask%4)), []byte("v"))
			return nil
		}); err != nil {
			return err
		}
		if err := observe("map"); err != nil {
			return err
		}
		if err := mr.Aggregate(nil); err != nil {
			return err
		}
		if err := observe("aggregate"); err != nil {
			return err
		}
		if err := mr.Convert(); err != nil {
			return err
		}
		if err := observe("convert"); err != nil {
			return err
		}
		if _, err := mr.Reduce(func(key []byte, values [][]byte, out *mrmpi.KeyValue) error {
			out.Add(key, []byte(fmt.Sprintf("%d", len(values))))
			return nil
		}); err != nil {
			return err
		}
		return observe("reduce")
	})
	if err != nil {
		t.Fatal(err)
	}

	wantOrder := []string{"map", "aggregate", "convert", "reduce"}
	if len(seen) != len(wantOrder) {
		t.Fatalf("observed %d snapshots, want %d", len(seen), len(wantOrder))
	}
	for i, obsd := range seen {
		if obsd.phase != wantOrder[i] {
			t.Fatalf("snapshot %d taken after phase %q, want %q", i, obsd.phase, wantOrder[i])
		}
		for _, rs := range obsd.snap.Ranks {
			if rs.Phase != obsd.phase {
				t.Errorf("after %s: rank %d reports phase %q", obsd.phase, rs.Rank, rs.Phase)
			}
		}
	}
	// Task counters: every rank advertised the global total, and the
	// per-rank done counts sum to it.
	mapSnap := seen[0].snap
	var done int64
	for _, rs := range mapSnap.Ranks {
		if rs.TasksTotal != nmap {
			t.Errorf("rank %d tasks_total = %d, want %d", rs.Rank, rs.TasksTotal, nmap)
		}
		done += rs.TasksDone
	}
	if done != nmap {
		t.Errorf("sum of tasks_done = %d, want %d (done == total)", done, nmap)
	}
	// Aggregate moved bytes between ranks; the snapshot taken after it must
	// show exchange progress somewhere.
	var exch int64
	for _, rs := range seen[1].snap.Ranks {
		exch += rs.ExchangeSentBytes
	}
	if exch == 0 {
		t.Error("no exchange bytes visible after aggregate")
	}
}

// TestTextView checks the watch-able plain-text rendering.
func TestTextView(t *testing.T) {
	board := obs.NewBoard()
	rb := board.Rank(0)
	rb.SetPhase("map")
	rb.BeginTasks(5)
	rb.TaskDone()
	srv := New(board, nil, nil, nil)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/", "/status.txt"} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		text := string(body)
		if !strings.Contains(text, "rank 0: phase=map tasks=1/5") {
			t.Errorf("GET %s = %q, want it to contain rank 0's status line", path, text)
		}
	}
}

// TestMetricsRoute checks /metrics serves a conformant Prometheus exposition
// of the registry plus comm-matrix totals, and 404s when every source is
// absent.
func TestMetricsRoute(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("x.count").Add(3)
	tracker := comm.NewTracker()
	tracker.Rank(0).SetPhase("map")
	tracker.Rank(0).RecordSend(1, 7, 128, 1)
	tracker.Rank(1).RecordRecv(0, 7, 128, 1000, 500, 1, "map")
	srv := New(obs.NewBoard(), nil, reg, tracker)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if !strings.Contains(text, "x_count_total 3") {
		t.Errorf("/metrics = %q, want Prometheus counter x_count_total 3", text)
	}
	if !strings.Contains(text, `mpi_comm_bytes_total{src="0",dst="1",phase="map"} 128`) {
		t.Errorf("/metrics = %q, want the comm-matrix link total", text)
	}
	if err := obs.ValidatePrometheus(strings.NewReader(text)); err != nil {
		t.Errorf("/metrics exposition not conformant: %v\n%s", err, text)
	}

	off := New(obs.NewBoard(), nil, nil, nil)
	if err := off.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	resp, err = http.Get("http://" + off.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/metrics without sources: status %d, want 404", resp.StatusCode)
	}
}

// TestSnapshotBeforeRun: an idle server serves an empty-but-valid snapshot.
func TestSnapshotBeforeRun(t *testing.T) {
	srv := New(obs.NewBoard(), nil, nil, nil)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	snap := getSnapshot(t, srv.Addr())
	if snap.Ranks == nil || len(snap.Ranks) != 0 {
		t.Errorf("idle snapshot ranks = %v, want empty non-nil", snap.Ranks)
	}
	if snap.UptimeMS < 0 {
		t.Errorf("uptime_ms = %d, want >= 0", snap.UptimeMS)
	}
}
