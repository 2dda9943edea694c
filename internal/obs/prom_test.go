package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"mpi.send.bytes": "mpi_send_bytes",
		"already_fine":   "already_fine",
		"dash-ed":        "dash_ed",
		"9lead":          "_9lead",
		"":               "_",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheusAndValidate(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("mpi.sends").Add(42)
	reg.Counter("mpi.send.bytes").Add(1 << 20)
	reg.Gauge("mrmpi.kv.bytes").Set(77)
	h := reg.Histogram("mrmpi.task.ms")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	var buf bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE mpi_sends_total counter",
		"mpi_sends_total 42",
		"# TYPE mrmpi_kv_bytes gauge",
		"mrmpi_kv_bytes 77",
		"# TYPE mrmpi_task_ms summary",
		`mrmpi_task_ms{quantile="0.5"}`,
		"mrmpi_task_ms_sum 5050",
		"mrmpi_task_ms_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := ValidatePrometheus(strings.NewReader(out)); err != nil {
		t.Fatalf("our own exposition fails conformance: %v\n%s", err, out)
	}
}

func TestValidatePrometheusEmptyHistogram(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("empty.hist")
	var buf bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidatePrometheus(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("empty histogram exposition invalid: %v\n%s", err, buf.String())
	}
}

func TestValidatePrometheusRejectsMalformed(t *testing.T) {
	bad := map[string]string{
		"bad metric name":   "1up 3\n",
		"no value":          "lonely\n",
		"bad value":         "x yes\n",
		"bad label name":    `x{1bad="v"} 3` + "\n",
		"unquoted label":    `x{l=v} 3` + "\n",
		"unbalanced braces": "x}y{ 3\n",
		"duplicate sample":  "x 1\nx 2\n",
		"duplicate TYPE":    "# TYPE x counter\n# TYPE x gauge\nx 1\n",
		"TYPE after sample": "x 1\n# TYPE x counter\n",
		"bad TYPE kind":     "# TYPE x sideways\nx 1\n",
		"bad timestamp":     "x 1 soon\n",
		"empty exposition":  "# just a comment\n",
	}
	for name, body := range bad {
		if err := ValidatePrometheus(strings.NewReader(body)); err == nil {
			t.Errorf("%s: accepted %q", name, body)
		}
	}
	good := map[string]string{
		"labels":        `x{a="1",b="two words"} 3` + "\n",
		"escaped label": `x{a="say \"hi\" \\ bye"} 3` + "\n",
		"timestamp":     "x 3.14 1700000000000\n",
		"inf and nan":   "x NaN\ny +Inf\nz -Inf\n",
		"summary order": "# TYPE s summary\ns{quantile=\"0.5\"} 1\ns_sum 2\ns_count 3\n",
		"free comment":  "# scraped by test\nx 1\n",
	}
	for name, body := range good {
		if err := ValidatePrometheus(strings.NewReader(body)); err != nil {
			t.Errorf("%s: rejected %q: %v", name, body, err)
		}
	}
}

// TestBoardSnapshotConcurrent snapshots the board while every rank mutates
// every slot — the -race coverage the live server and watchdog rely on,
// including the snapshot-before-any-run edge case.
func TestBoardSnapshotConcurrent(t *testing.T) {
	b := NewBoard()
	if got := b.Snapshot(nil); len(got) != 0 {
		t.Fatalf("snapshot before any rank exists = %+v, want empty", got)
	}
	var mutators sync.WaitGroup
	for rank := 0; rank < 4; rank++ {
		mutators.Add(1)
		go func(rank int) {
			defer mutators.Done()
			rb := b.Rank(rank)
			for i := 0; i < 2000; i++ {
				rb.SetPhase("map")
				rb.BeginTasks(16)
				rb.TaskDone()
				rb.SetEpoch(int64(i))
				rb.SetKVBytes(int64(i))
				rb.SetSpillBytes(int64(i))
				rb.AddExchange(1, 1)
			}
		}(rank)
	}
	stop := make(chan struct{})
	snapshotterDone := make(chan struct{})
	go func() {
		defer close(snapshotterDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, st := range b.Snapshot(nil) {
				_ = st.String()
			}
		}
	}()
	mutators.Wait()
	close(stop)
	<-snapshotterDone
	states := b.Snapshot(nil)
	if len(states) != 4 {
		t.Fatalf("ranks = %d, want 4", len(states))
	}
	for _, st := range states {
		if st.Epoch != 1999 || st.BeatAgeNS < 0 {
			t.Fatalf("final state: %+v", st)
		}
	}
}

// TestRegistrySnapshotConcurrent races Snapshot and WritePrometheus against
// instrument mutation from several goroutines, plus the snapshot-before-run
// (empty registry) edge case.
func TestRegistrySnapshotConcurrent(t *testing.T) {
	reg := NewRegistry()
	// Snapshot-before-run: empty registry snapshots and renders cleanly.
	var empty bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&empty); err != nil {
		t.Fatalf("empty WritePrometheus: %v", err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := reg.Counter("c")
			ga := reg.Gauge("g")
			h := reg.Histogram("h")
			for i := 0; i < 5000; i++ {
				c.Inc()
				ga.Set(int64(i))
				h.Observe(float64(i))
			}
		}(g)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for i := 0; i < 100; i++ {
			s := reg.Snapshot()
			var buf bytes.Buffer
			if err := s.WritePrometheus(&buf); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-readerDone
	s := reg.Snapshot()
	if len(s.Counters) != 1 || s.Counters[0].Value != 4*5000 {
		t.Fatalf("final counters: %+v", s.Counters)
	}
	if len(s.Histograms) != 1 || s.Histograms[0].Count != 4*5000 {
		t.Fatalf("final histograms: %+v", s.Histograms)
	}
}
