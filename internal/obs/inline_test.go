package obs

import (
	"os/exec"
	"strings"
	"testing"
)

// TestDisabledPathsInline is the structural half of the disabled-path
// overhead budget: the ns/op gates (TestDisabledPathOverhead here, in
// internal/obs/comm and in internal/mpi) only hold reliably when each fast
// path is a nil check the compiler inlines into its caller, with the
// recording body out of line. A body grown back into one of these functions
// fails this test on any machine instead of making the ns gates flaky.
func TestDisabledPathsInline(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes inlining decisions; the guard runs in the non-race build")
	}
	if testing.Short() {
		t.Skip("compiler diagnostics build skipped in -short mode")
	}
	out, err := exec.Command("go", "build", "-gcflags=-m",
		"repro/internal/obs", "repro/internal/obs/comm", "repro/internal/mpi").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, fn := range []string{
		"(*RankTracer).Begin",
		"Span.End",
		"(*Rank).RecordSend",
		"(*Rank).RecordRecv",
		"(*Comm).stampProvenance",
	} {
		if !strings.Contains(string(out), "can inline "+fn+"\n") {
			t.Errorf("%s is not inlinable; keep its disabled check apart from an out-of-line body", fn)
		}
	}
}
