package analyze

import (
	"strings"
	"testing"

	"repro/internal/obs/comm"
)

// commFixture records a small two-phase exchange through a real tracker so
// the test exercises the same merge path as a live run.
func commFixture() *comm.Matrix {
	tracker := comm.NewTracker()
	tracker.Rank(0).SetPhase("map")
	tracker.Rank(1).SetPhase("map")
	// Rank 0 is the heavy sender: 10 messages with a perfect α–β latency
	// (α = 1000ns, β = 2ns/B) so the fit recovers it.
	for i := 1; i <= 10; i++ {
		size := int64(i * 100)
		tracker.Rank(0).RecordSend(1, 1, size, uint64(i))
		tracker.Rank(1).RecordRecv(0, 1, size, 1000+2*size, 100, uint64(i), "map")
	}
	tracker.Rank(1).SetPhase("reduce")
	tracker.Rank(1).RecordSend(0, 2, 50, 1)
	tracker.Rank(0).RecordRecv(1, 2, 50, 500, 50, 1, "reduce")
	return tracker.Matrix()
}

func TestAnalyzeComm(t *testing.T) {
	cr := AnalyzeComm(commFixture())
	if cr == nil {
		t.Fatal("AnalyzeComm returned nil for a populated matrix")
	}
	if cr.TotalMsgs != 11 {
		t.Fatalf("TotalMsgs = %d, want 11", cr.TotalMsgs)
	}
	wantBytes := int64(100+200+300+400+500+600+700+800+900+1000) + 50
	if cr.TotalBytes != wantBytes {
		t.Fatalf("TotalBytes = %d, want %d", cr.TotalBytes, wantBytes)
	}
	if len(cr.Phases) != 2 || cr.Phases[0].Phase != "map" {
		t.Fatalf("Phases = %+v, want map first (heaviest)", cr.Phases)
	}
	if len(cr.SentByRank) != 2 || cr.SentByRank[0] != wantBytes-50 || cr.SentByRank[1] != 50 {
		t.Fatalf("SentByRank = %v", cr.SentByRank)
	}
	// max/mean: rank 0 sent 5500 of 5550 total → 5500/(5550/2).
	wantImb := float64(wantBytes-50) / (float64(wantBytes) / 2)
	if diff := cr.SendImbalance - wantImb; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("SendImbalance = %v, want %v", cr.SendImbalance, wantImb)
	}
	if len(cr.TopLinks) == 0 || cr.TopLinks[0].Src != 0 || cr.TopLinks[0].Dst != 1 {
		t.Fatalf("TopLinks = %+v, want 0->1 heaviest", cr.TopLinks)
	}
	if cr.Fit == nil {
		t.Fatal("global fit missing despite 11 samples")
	}
	// The 0->1 link's 10 exact samples dominate: α ≈ 1000ns, β ≈ 2ns/B.
	if len(cr.LinkFits) != 1 || cr.LinkFits[0].Src != 0 || cr.LinkFits[0].Dst != 1 {
		t.Fatalf("LinkFits = %+v, want exactly the 0->1 fit", cr.LinkFits)
	}
	fit := cr.LinkFits[0].Fit
	if fit.AlphaNS < 999 || fit.AlphaNS > 1001 || fit.BetaNSPerByte < 1.99 || fit.BetaNSPerByte > 2.01 {
		t.Fatalf("0->1 fit = %+v, want α≈1000 β≈2", fit)
	}
}

func TestAnalyzeCommEmpty(t *testing.T) {
	if cr := AnalyzeComm(nil); cr != nil {
		t.Fatalf("AnalyzeComm(nil) = %+v, want nil", cr)
	}
	if cr := AnalyzeComm(&comm.Matrix{}); cr != nil {
		t.Fatalf("AnalyzeComm(empty) = %+v, want nil", cr)
	}
}

// TestWriteReportWithComm checks the comm section renders when attached and
// is absent otherwise.
func TestWriteReportWithComm(t *testing.T) {
	rep := Report{Comm: AnalyzeComm(commFixture())}
	var sb strings.Builder
	if err := WriteReport(&sb, rep); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"communication: 11 msgs", "send volume by rank", "α–β model:", "0->1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}

	sb.Reset()
	if err := WriteReport(&sb, Report{}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "communication:") {
		t.Fatalf("comm section rendered without a matrix:\n%s", sb.String())
	}
}
