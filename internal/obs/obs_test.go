package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanLifecycleAndMerge(t *testing.T) {
	tr := NewTracer()
	r0 := tr.Rank(0)
	r1 := tr.Rank(1)

	sp := r0.Begin("mrmpi", "map", Arg{Key: "tasks", Val: 4})
	inner := r0.Begin("mrmpi", "map.task")
	inner.End()
	sp.End()
	r1.Instant("mpi", "Send", Arg{Key: "dst", Val: 0})

	events := tr.Events()
	if len(events) != 5 {
		t.Fatalf("got %d events, want 5", len(events))
	}
	if err := Validate(events); err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
	// Per-rank timestamps must be non-decreasing after the merge.
	last := map[int]int64{}
	for _, ev := range events {
		if ev.TS < last[ev.Rank] {
			t.Fatalf("rank %d timestamps went backwards", ev.Rank)
		}
		last[ev.Rank] = ev.TS
	}
}

func TestDoubleEndIsNoop(t *testing.T) {
	tr := NewTracer()
	rt := tr.Rank(0)
	sp := rt.Begin("c", "n")
	sp.End()
	sp.End() // deferred End after explicit End must not emit a second E
	events := tr.Events()
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2 (double End must be a no-op)", len(events))
	}
	if err := Validate(events); err != nil {
		t.Fatal(err)
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	rt := tr.Rank(3)
	if rt != nil {
		t.Fatal("nil tracer must hand out nil rank handles")
	}
	sp := rt.Begin("c", "n")
	sp.End()
	rt.Instant("c", "n")
	if rt.InFlight() != "" {
		t.Fatal("nil rank tracer must report empty in-flight")
	}
	if got := tr.Events(); got != nil {
		t.Fatalf("nil tracer produced events: %v", got)
	}
}

func TestChromeRoundTrip(t *testing.T) {
	tr := NewTracer()
	rt := tr.Rank(2)
	sp := rt.Begin("mrmpi", "aggregate", Arg{Key: "sent", Val: 123})
	time.Sleep(time.Millisecond)
	sp.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	// The file must be plain JSON with a traceEvents array.
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if _, ok := raw["traceEvents"].([]any); !ok {
		t.Fatal("missing traceEvents array")
	}

	events, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("round trip kept %d events, want 2", len(events))
	}
	b := events[0]
	if b.Type != BeginEvent || b.Rank != 2 || b.Cat != "mrmpi" || b.Name != "aggregate" {
		t.Fatalf("bad begin event after round trip: %+v", b)
	}
	if len(b.Args) != 1 || b.Args[0].Key != "sent" {
		t.Fatalf("args lost in round trip: %+v", b.Args)
	}
}

func TestValidateCatchesMisuse(t *testing.T) {
	base := func() (*Tracer, *RankTracer) {
		tr := NewTracer()
		return tr, tr.Rank(0)
	}

	tr, rt := base()
	// mpilint:ignore obslint -- deliberately unclosed span to provoke Validate.
	rt.Begin("c", "unclosed")
	if err := Validate(tr.Events()); err == nil || !strings.Contains(err.Error(), "never ended") {
		t.Fatalf("unclosed span not caught: %v", err)
	}

	// An E with no open span.
	bad := []Event{{Type: EndEvent, Rank: 0, Cat: "c", Name: "n", TS: 1}}
	if err := Validate(bad); err == nil || !strings.Contains(err.Error(), "no span open") {
		t.Fatalf("stray end not caught: %v", err)
	}

	// Mismatched nesting.
	bad = []Event{
		{Type: BeginEvent, Rank: 0, Cat: "c", Name: "outer", TS: 1},
		{Type: BeginEvent, Rank: 0, Cat: "c", Name: "inner", TS: 2},
		{Type: EndEvent, Rank: 0, Cat: "c", Name: "outer", TS: 3},
	}
	if err := Validate(bad); err == nil || !strings.Contains(err.Error(), "innermost") {
		t.Fatalf("misnesting not caught: %v", err)
	}

	// A clock running backwards.
	bad = []Event{
		{Type: InstantEvent, Rank: 0, Cat: "c", Name: "a", TS: 5},
		{Type: InstantEvent, Rank: 0, Cat: "c", Name: "b", TS: 4},
	}
	if err := Validate(bad); err == nil || !strings.Contains(err.Error(), "backwards") {
		t.Fatalf("clock regression not caught: %v", err)
	}
}

func TestSummarizeAndTopSlowest(t *testing.T) {
	events := []Event{
		{Type: BeginEvent, Rank: 0, Cat: "mrmpi", Name: "map", TS: 0},
		{Type: EndEvent, Rank: 0, Cat: "mrmpi", Name: "map", TS: 100},
		{Type: BeginEvent, Rank: 0, Cat: "mrmpi", Name: "map", TS: 200},
		{Type: EndEvent, Rank: 0, Cat: "mrmpi", Name: "map", TS: 500},
		{Type: BeginEvent, Rank: 1, Cat: "mrmpi", Name: "reduce", TS: 0},
		{Type: EndEvent, Rank: 1, Cat: "mrmpi", Name: "reduce", TS: 50},
	}
	stats := Summarize(events)
	if len(stats) != 2 {
		t.Fatalf("got %d stat rows, want 2", len(stats))
	}
	m := stats[0]
	if m.Rank != 0 || m.Name != "map" || m.Count != 2 || m.Total != 400 || m.Max != 300 || m.Mean() != 200 {
		t.Fatalf("bad map stats: %+v", m)
	}
	top := TopSlowest(events, 2)
	if len(top) != 2 || top[0].Dur != 300 || top[0].Name != "map" {
		t.Fatalf("bad top spans: %+v", top)
	}

	var buf bytes.Buffer
	if err := WriteSummaryTable(&buf, stats); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mrmpi:map") || !strings.Contains(buf.String(), "mrmpi:reduce") {
		t.Fatalf("summary table missing rows:\n%s", buf.String())
	}
}

// TestConcurrentSameRankBuffer drives one rank buffer from many goroutines
// at once — the shape of concurrent map tasks tracing on a shared rank —
// and is run under -race by `make test` and CI.
func TestConcurrentSameRankBuffer(t *testing.T) {
	tr := NewTracer()
	rt := tr.Rank(0)
	const workers, iters = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sp := rt.Begin("test", "task")
				rt.Instant("test", "tick")
				sp.End()
				_ = rt.InFlight()
			}
		}()
	}
	wg.Wait()
	if got, want := len(tr.Events()), workers*iters*3; got != want {
		t.Fatalf("got %d events, want %d", got, want)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count").Add(3)
	r.Counter("a.count").Inc()
	r.Gauge("b.level").Set(7)
	r.Histogram("c.dur").Observe(2)
	r.Histogram("c.dur").Observe(4)

	s := r.Snapshot()
	if len(s.Counters) != 1 || s.Counters[0].Value != 4 {
		t.Fatalf("bad counters: %+v", s.Counters)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Value != 7 {
		t.Fatalf("bad gauges: %+v", s.Gauges)
	}
	h := s.Histograms[0]
	if h.Count != 2 || h.Sum != 6 || h.Min != 2 || h.Max != 4 || h.Mean() != 3 {
		t.Fatalf("bad histogram: %+v", h)
	}

	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "a_count_total 4") {
		t.Fatalf("metrics exposition missing counter:\n%s", buf.String())
	}
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Gauge("y").Set(2)
	r.Histogram("z").Observe(3)
	if r.Counter("x").Value() != 0 || r.Gauge("y").Value() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("shared").Inc()
				r.Histogram("h").Observe(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 4000 {
		t.Fatalf("counter = %d, want 4000", got)
	}
}

// TestHistogramQuantiles: with fewer observations than the sample cap the
// buffer holds the full stream, so quantiles are exact order statistics.
func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	// 1..100 in a scrambled but deterministic order.
	for i := 0; i < 100; i++ {
		h.Observe(float64((i*37)%100 + 1))
	}
	hv := r.Snapshot().Histograms[0]
	if hv.Count != 100 {
		t.Fatalf("count = %d, want 100", hv.Count)
	}
	if hv.P50 != 50.5 {
		t.Errorf("p50 = %g, want 50.5", hv.P50)
	}
	if hv.P95 < 95 || hv.P95 > 96 {
		t.Errorf("p95 = %g, want in [95,96]", hv.P95)
	}
	if hv.P99 < 99 || hv.P99 > 100 {
		t.Errorf("p99 = %g, want in [99,100]", hv.P99)
	}
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`lat{quantile="0.5"}`, `lat{quantile="0.95"}`, `lat{quantile="0.99"}`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, buf.String())
		}
	}
}

// TestHistogramDecimation pushes far past the sample cap: count/sum stay
// exact and quantile estimates stay close on a uniform stream.
func TestHistogramDecimation(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("big")
	const n = 40_000
	for i := 0; i < n; i++ {
		h.Observe(float64(i % 1000))
	}
	hv := r.Snapshot().Histograms[0]
	if hv.Count != n {
		t.Fatalf("count = %d, want %d", hv.Count, n)
	}
	if hv.Min != 0 || hv.Max != 999 {
		t.Errorf("min/max = %g/%g, want 0/999", hv.Min, hv.Max)
	}
	if hv.P50 < 400 || hv.P50 > 600 {
		t.Errorf("decimated p50 = %g, want ~500", hv.P50)
	}
	if hv.P99 < 950 {
		t.Errorf("decimated p99 = %g, want >= 950", hv.P99)
	}
}

// TestQuantileEdges covers the shared quantile helper directly.
func TestQuantileEdges(t *testing.T) {
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}
	s := []float64{10}
	if Quantile(s, 0) != 10 || Quantile(s, 0.5) != 10 || Quantile(s, 1) != 10 {
		t.Error("single-sample quantiles must all be the sample")
	}
	s = []float64{0, 10}
	if got := Quantile(s, 0.25); got != 2.5 {
		t.Errorf("interpolated quantile = %g, want 2.5", got)
	}
}

// TestBoardPublishes exercises the live status board: per-rank slots update
// independently and render into both RankState and its text form.
func TestBoardPublishes(t *testing.T) {
	b := NewBoard()
	r0 := b.Rank(0)
	r1 := b.Rank(1)
	r0.SetPhase("map")
	r0.BeginTasks(8)
	r0.TaskDone()
	r0.TaskDone()
	r0.SetKVBytes(512)
	r1.SetPhase("aggregate")
	r1.AddExchange(100, 200)
	r1.SetEpoch(3)

	states := b.Snapshot(nil)
	if len(states) != 2 {
		t.Fatalf("snapshot has %d ranks, want 2", len(states))
	}
	if states[0].Phase != "map" || states[0].TasksDone != 2 || states[0].TasksTotal != 8 {
		t.Errorf("rank 0 state = %+v", states[0])
	}
	if states[0].KVBytes != 512 {
		t.Errorf("rank 0 kv bytes = %d, want 512", states[0].KVBytes)
	}
	if states[1].Phase != "aggregate" || states[1].ExchangeSentBytes != 100 || states[1].ExchangeRecvBytes != 200 || states[1].Epoch != 3 {
		t.Errorf("rank 1 state = %+v", states[1])
	}
	if s := states[0].String(); !strings.Contains(s, "phase=map") || !strings.Contains(s, "tasks=2/8") {
		t.Errorf("rank 0 text = %q", s)
	}
}

// TestBoardNilSafe: a nil board and nil rank-board are valid disabled
// instruments.
func TestBoardNilSafe(t *testing.T) {
	var b *Board
	if rb := b.Rank(0); rb != nil {
		t.Fatal("nil board must hand out nil rank boards")
	}
	var rb *RankBoard
	rb.SetPhase("x")
	rb.BeginTasks(1)
	rb.TaskDone()
	rb.SetKVBytes(1)
	rb.SetSpillBytes(1)
	rb.AddExchange(1, 1)
	rb.SetEpoch(1)
	if got := b.Snapshot(nil); len(got) != 0 {
		t.Fatalf("nil board snapshot = %+v, want empty", got)
	}
}

// TestBoardInFlightFromTracer: Snapshot folds each rank's open span from the
// tracer into the state, which is what the watchdog prints.
func TestBoardInFlightFromTracer(t *testing.T) {
	b := NewBoard()
	b.Rank(0).SetPhase("map")
	tr := NewTracer()
	sp := tr.Rank(0).Begin("mpi", "Recv")
	states := b.Snapshot(tr)
	if len(states) != 1 || !strings.Contains(states[0].InFlight, "mpi:Recv") {
		t.Fatalf("in-flight = %+v, want mpi:Recv", states)
	}
	sp.End()
	states = b.Snapshot(tr)
	if states[0].InFlight != "idle" {
		t.Fatalf("in-flight after End = %q, want idle", states[0].InFlight)
	}
}

// TestValidateInstants covers the -check validation of instant events.
func TestValidateInstants(t *testing.T) {
	span := []Event{
		{Type: BeginEvent, Rank: 0, Cat: "app", Name: "w", TS: 100},
		{Type: EndEvent, Rank: 0, Cat: "app", Name: "w", TS: 200},
	}
	ok := append(span, Event{Type: InstantEvent, Rank: 1, Cat: "mpi", Name: "Send", TS: 150})
	if err := ValidateInstants(ok, 2); err != nil {
		t.Errorf("valid instants rejected: %v", err)
	}
	neg := append(span, Event{Type: InstantEvent, Rank: -1, Cat: "mpi", Name: "Send", TS: 150})
	if err := ValidateInstants(neg, 2); err == nil {
		t.Error("negative rank accepted")
	}
	high := append(span, Event{Type: InstantEvent, Rank: 5, Cat: "mpi", Name: "Send", TS: 150})
	if err := ValidateInstants(high, 2); err == nil {
		t.Error("out-of-range rank accepted")
	}
	early := append(span, Event{Type: InstantEvent, Rank: 0, Cat: "mpi", Name: "Send", TS: 5})
	if err := ValidateInstants(early, 2); err == nil {
		t.Error("instant before the trace clock span accepted")
	}
	late := append(span, Event{Type: InstantEvent, Rank: 0, Cat: "mpi", Name: "Send", TS: 500})
	if err := ValidateInstants(late, 2); err == nil {
		t.Error("instant after the trace clock span accepted")
	}
}

// TestReadTraceMeta: the Chrome export carries per-rank thread metadata that
// ReadTraceMeta turns back into a rank count.
func TestReadTraceMeta(t *testing.T) {
	tr := NewTracer()
	for r := 0; r < 3; r++ {
		sp := tr.Rank(r).Begin("app", "w")
		sp.End()
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events, meta, err := ReadTraceMeta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if meta.NumRanks != 3 {
		t.Errorf("meta ranks = %d, want 3", meta.NumRanks)
	}
	if len(events) != 6 {
		t.Errorf("events = %d, want 6", len(events))
	}
}
