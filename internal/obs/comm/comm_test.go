package comm

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilTrackerNoOps(t *testing.T) {
	var tr *Tracker
	if tr.Now() != 0 {
		t.Fatal("nil Tracker.Now should be 0")
	}
	r := tr.Rank(3)
	if r != nil {
		t.Fatal("nil Tracker.Rank should hand out a nil handle")
	}
	// All methods on the nil handle must be safe no-ops.
	r.SetPhase("map")
	if r.Phase() != "" {
		t.Fatal("nil Rank.Phase should be empty")
	}
	r.RecordSend(1, 0, 100, 1)
	r.RecordRecv(1, 0, 100, 10, 5, 1, "map")
	if tr.Matrix() != nil {
		t.Fatal("nil Tracker.Matrix should be nil")
	}
}

func TestMatrixMergeAndPhases(t *testing.T) {
	tr := NewTracker()
	r0, r1 := tr.Rank(0), tr.Rank(1)

	r0.SetPhase("map")
	if got := r0.Phase(); got != "map" {
		t.Fatalf("Phase = %q, want map", got)
	}
	r0.RecordSend(1, 5, 100, 1)
	r0.RecordSend(1, 5, 200, 2)
	r1.RecordRecv(0, 5, 100, 1000, 400, 1, "map")
	r1.RecordRecv(0, 5, 200, 3000, 600, 2, "map")

	r0.SetPhase("aggregate")
	r0.RecordSend(1, 6, 50, 3)
	r1.RecordRecv(0, 6, 50, 500, 100, 3, "aggregate")

	// Reverse-direction traffic with no SetPhase → empty phase label.
	r1.RecordSend(0, 7, 10, 1)
	r0.RecordRecv(1, 7, 10, 100, 50, 1, "")

	m := tr.Matrix()
	if m.NumRanks != 2 {
		t.Fatalf("NumRanks = %d, want 2", m.NumRanks)
	}
	if len(m.Links) != 3 {
		t.Fatalf("links = %d, want 3: %+v", len(m.Links), m.Links)
	}

	find := func(src, dst int, phase string) *Link {
		for i := range m.Links {
			l := &m.Links[i]
			if l.Src == src && l.Dst == dst && l.Phase == phase {
				return l
			}
		}
		t.Fatalf("link %d->%d phase=%q not found in %+v", src, dst, phase, m.Links)
		return nil
	}
	l := find(0, 1, "map")
	if l.Msgs != 2 || l.Bytes != 300 || l.SentMsgs != 2 || l.SentBytes != 300 {
		t.Fatalf("map link: %+v", l)
	}
	if l.QueueNS != 4000 || l.MaxQueueNS != 3000 || l.TransferNS != 1000 {
		t.Fatalf("map link latency sums: %+v", l)
	}
	if l.AvgQueue() != 2000 {
		t.Fatalf("AvgQueue = %v, want 2µs", l.AvgQueue())
	}
	if len(l.Samples) != 2 {
		t.Fatalf("samples = %+v, want 2", l.Samples)
	}
	find(0, 1, "aggregate")
	find(1, 0, "")

	msgs, total := m.Totals()
	if msgs != 4 || total != 360 {
		t.Fatalf("Totals = (%d, %d), want (4, 360)", msgs, total)
	}
	phases := m.PhaseTotals()
	if len(phases) != 3 || phases[0].Phase != "map" || phases[0].Bytes != 300 {
		t.Fatalf("PhaseTotals = %+v", phases)
	}
	top := m.TopLinks(1)
	if len(top) != 1 || top[0].Bytes != 300 {
		t.Fatalf("TopLinks(1) = %+v", top)
	}
	grid := m.PairBytes()
	if grid[0][1] != 350 || grid[1][0] != 10 {
		t.Fatalf("PairBytes = %+v", grid)
	}
	if lost := m.Unaccounted(); len(lost) != 0 {
		t.Fatalf("balanced matrix reports unaccounted links: %+v", lost)
	}
}

func TestUnaccountedTracksInFlight(t *testing.T) {
	tr := NewTracker()
	tr.Rank(0).SetPhase("map")
	tr.Rank(0).RecordSend(1, 5, 100, 1)
	// Never delivered: the matrix must show the shortfall.
	m := tr.Matrix()
	lost := m.Unaccounted()
	if len(lost) != 1 || lost[0].SentBytes != 100 || lost[0].Bytes != 0 {
		t.Fatalf("Unaccounted = %+v", lost)
	}
}

func TestMatrixJSONRoundTrip(t *testing.T) {
	tr := NewTracker()
	tr.Rank(0).SetPhase("map")
	tr.Rank(0).RecordSend(1, 5, 100, 1)
	tr.Rank(1).RecordRecv(0, 5, 100, 1000, 400, 1, "map")
	m := tr.Matrix()

	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrix(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRanks != m.NumRanks || len(back.Links) != len(m.Links) {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, m)
	}
	if back.Links[0].Bytes != 100 || back.Links[0].Phase != "map" {
		t.Fatalf("round-tripped link: %+v", back.Links[0])
	}
}

func TestSampleDecimation(t *testing.T) {
	a := &recvAcc{}
	for i := 0; i < 10*sampleCap; i++ {
		a.addSample(Sample{Bytes: int64(i), LatencyNS: int64(i)})
	}
	if len(a.samples) > sampleCap {
		t.Fatalf("samples grew past cap: %d > %d", len(a.samples), sampleCap)
	}
	if len(a.samples) < sampleCap/4 {
		t.Fatalf("decimation kept too few samples: %d", len(a.samples))
	}
	// The kept set must span the run, not just its start.
	last := a.samples[len(a.samples)-1].Bytes
	if last < int64(5*sampleCap) {
		t.Fatalf("kept samples end at %d; decimation is not spreading", last)
	}
}

func TestFitAlphaBetaRecoversModel(t *testing.T) {
	// Exact synthetic α–β data: latency = 2000ns + bytes * 0.5ns/B.
	var samples []Sample
	for _, b := range []int64{64, 256, 1024, 4096, 65536, 1 << 20} {
		samples = append(samples, Sample{Bytes: b, LatencyNS: 2000 + b/2})
	}
	fit, ok := FitAlphaBeta(samples)
	if !ok {
		t.Fatal("fit failed on clean data")
	}
	if math.Abs(fit.AlphaNS-2000) > 1 {
		t.Fatalf("α = %v, want ≈2000ns", fit.AlphaNS)
	}
	if math.Abs(fit.BetaNSPerByte-0.5) > 1e-6 {
		t.Fatalf("β = %v, want 0.5 ns/B", fit.BetaNSPerByte)
	}
	if math.Abs(fit.BandwidthMBps-2000) > 1 {
		t.Fatalf("bandwidth = %v MB/s, want 2000", fit.BandwidthMBps)
	}
	if fit.R2 < 0.999 {
		t.Fatalf("R² = %v on exact data", fit.R2)
	}
	if s := fit.String(); !strings.Contains(s, "MB/s") {
		t.Fatalf("Fit.String = %q", s)
	}
}

func TestFitAlphaBetaDegenerate(t *testing.T) {
	if _, ok := FitAlphaBeta(nil); ok {
		t.Fatal("fit on no samples should fail")
	}
	if _, ok := FitAlphaBeta([]Sample{{Bytes: 10, LatencyNS: 5}}); ok {
		t.Fatal("fit on one sample should fail")
	}
	// All samples the same size: slope unidentifiable.
	same := []Sample{{Bytes: 64, LatencyNS: 100}, {Bytes: 64, LatencyNS: 200}}
	if _, ok := FitAlphaBeta(same); ok {
		t.Fatal("fit with zero size variance should fail")
	}
	// Latency shrinking with size: clamped to a flat model, never negative
	// bandwidth.
	shrink := []Sample{{Bytes: 10, LatencyNS: 1000}, {Bytes: 1000, LatencyNS: 10}}
	fit, ok := FitAlphaBeta(shrink)
	if !ok {
		t.Fatal("noisy fit should still report")
	}
	if fit.BetaNSPerByte != 0 || fit.BandwidthMBps != 0 {
		t.Fatalf("noise clamp: %+v", fit)
	}
	if !strings.Contains(fit.String(), "∞") {
		t.Fatalf("flat model should render ∞ bandwidth: %q", fit.String())
	}
}

func TestWriteReport(t *testing.T) {
	tr := NewTracker()
	r0, r1 := tr.Rank(0), tr.Rank(1)
	r0.SetPhase("map")
	for i := 0; i < 16; i++ {
		b := int64(64 << uint(i%6))
		r0.RecordSend(1, 5, b, uint64(i+1))
		r1.RecordRecv(0, 5, b, 2000+b/2, 100, uint64(i+1), "map")
	}
	var buf bytes.Buffer
	if err := tr.Matrix().WriteReport(&buf, 5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"comm matrix: 2 ranks",
		"per-phase totals:",
		"map",
		"bytes by rank pair",
		"top 1 links by bytes:",
		"0->1",
		"α–β model fit",
		"bandwidth=",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	tr := NewTracker()
	tr.Rank(0).SetPhase("map")
	tr.Rank(0).RecordSend(1, 5, 100, 1)
	tr.Rank(1).RecordRecv(0, 5, 100, 1000, 400, 1, "map")
	var buf bytes.Buffer
	if err := tr.Matrix().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE mpi_comm_bytes_total counter",
		`mpi_comm_bytes_total{src="0",dst="1",phase="map"} 100`,
		`mpi_comm_msgs_total{src="0",dst="1",phase="map"} 1`,
		// Receiver-side blocked time per link — the blame gauges (400ns).
		"# TYPE mpi_recv_wait_seconds_total counter",
		`mpi_recv_wait_seconds_total{src="0",dst="1",phase="map"} 4e-07`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestSeqAlignment: the per-link provenance seqs cross-check the message
// counters. Aligned links report nothing; a link whose recorded sends lag
// the seq stream is flagged.
func TestSeqAlignment(t *testing.T) {
	tr := NewTracker()
	tr.Rank(0).SetPhase("map")
	tr.Rank(0).RecordSend(1, 5, 100, 1)
	tr.Rank(0).SetPhase("reduce")
	tr.Rank(0).RecordSend(1, 5, 100, 2) // phases pool per (src, dst) pair
	tr.Rank(1).RecordRecv(0, 5, 100, 10, 5, 1, "map")
	tr.Rank(1).RecordRecv(0, 5, 100, 10, 5, 2, "reduce")
	if skews := tr.Matrix().SeqAlignment(); len(skews) != 0 {
		t.Fatalf("aligned matrix reports skew: %+v", skews)
	}

	// A delivery stamped seq 4 arrives but only 2 sends were recorded: the
	// accounting missed sends (e.g. a tracker attached mid-run).
	tr.Rank(1).RecordRecv(0, 5, 100, 10, 5, 4, "reduce")
	skews := tr.Matrix().SeqAlignment()
	if len(skews) != 1 {
		t.Fatalf("skews = %+v, want the 0->1 pair flagged", skews)
	}
	s := skews[0]
	if s.Src != 0 || s.Dst != 1 || s.MaxSeq != 4 || s.SentMsgs != 2 || s.Msgs != 3 {
		t.Fatalf("skew = %+v, want {0 1 4 2 3}", s)
	}

	// The text report renders the misalignment section.
	var buf bytes.Buffer
	if err := tr.Matrix().WriteReport(&buf, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "seq misalignment") {
		t.Fatalf("report missing seq misalignment section:\n%s", buf.String())
	}

	// Links recorded without seqs (pre-provenance) are skipped entirely.
	old := NewTracker()
	old.Rank(0).RecordSend(1, 5, 100, 0)
	if skews := old.Matrix().SeqAlignment(); len(skews) != 0 {
		t.Fatalf("seq-less matrix reports skew: %+v", skews)
	}
}

// TestConcurrentRecording hammers one tracker from many goroutines (each
// playing a rank) while Matrix snapshots race along; run under -race in CI.
func TestConcurrentRecording(t *testing.T) {
	tr := NewTracker()
	const ranks = 4
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			h := tr.Rank(r)
			for i := 0; i < 500; i++ {
				if i%100 == 0 {
					h.SetPhase([]string{"map", "aggregate", "reduce"}[i/100%3])
				}
				peer := (r + 1) % ranks
				h.RecordSend(peer, 5, int64(i), uint64(i+1))
				h.RecordRecv((r+ranks-1)%ranks, 5, int64(i), int64(i)*10, int64(i), uint64(i+1), h.Phase())
			}
		}(r)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			tr.Matrix()
		}
	}()
	wg.Wait()
	<-done
	m := tr.Matrix()
	msgs, _ := m.Totals()
	if msgs != ranks*500 {
		t.Fatalf("delivered msgs = %d, want %d", msgs, ranks*500)
	}
}
