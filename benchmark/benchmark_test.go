package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"go/parser"
	"go/token"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// parent re-executes os.Executable() with -child first, here as in main.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload end to end at smoke scale, traced pass
// included: counts and oracle only, no timing is asserted.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload in child processes")
	}
	dir := t.TempDir()
	all, err := selectWorkloads("", scaleSmoke)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runBenchmark(options{
		workloads: all, scale: scaleSmoke, seed: 7, repeats: 1, trace: true, workDir: dir,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(all) {
		t.Fatalf("%d workload results, want %d", len(res.Workloads), len(all))
	}
	for _, w := range res.Workloads {
		if w.Attempted == 0 || w.Failed != 0 || w.LeakedFiles != 0 {
			t.Errorf("%s: attempted %d, failed %d, leaked files %d", w.Name, w.Attempted, w.Failed, w.LeakedFiles)
		}
		if len(w.InputSHA256) != 64 {
			t.Errorf("%s: input digest %q", w.Name, w.InputSHA256)
		}
		for _, traced := range []bool{false, true} {
			declared := endToEnd
			if traced {
				declared = perLayer
			}
			checkContractLine(t, w, traced, declared)
		}
		for _, m := range endToEnd {
			if st := w.EndToEnd[m.name]; st.Median <= 0 || st.N == 0 {
				t.Errorf("%s: %s = %v over %d samples, want a positive measurement", w.Name, m.name, st.Median, st.N)
			}
		}
		data, err := os.ReadFile(w.TraceFile)
		if err != nil {
			t.Fatal(err)
		}
		var trace struct{ Spans []span }
		if err := json.Unmarshal(data, &trace); err != nil {
			t.Fatalf("%s: %v", w.TraceFile, err)
		}
		ids := map[int]bool{}
		for _, s := range trace.Spans {
			if ids[s.ID] || s.End < s.Start || s.Workload != w.Name {
				t.Errorf("%s: bad span %+v", w.Name, s)
			}
			ids[s.ID] = true
		}
		for _, s := range trace.Spans {
			if s.Parent != 0 && !ids[s.Parent] {
				t.Errorf("%s: span %d has unknown parent %d", w.Name, s.ID, s.Parent)
			}
		}
	}
	// Each workload must reach the layer it was chosen for.
	layer := func(workload, name string) float64 {
		for _, w := range res.Workloads {
			if w.Name == workload {
				return w.PerLayer[name]
			}
		}
		return 0
	}
	for _, want := range [][2]string{
		{"blastn-reads", "blast.hsps_reported"},
		{"blastn-decoy", "blast.gapped_exts"},
		{"blastp-remote", "blast.engine_build_s"},
		{"shuffle-spill", "mrmpi.spill_bytes"},
		{"shuffle-spill", "mrmpi.convert_s"},
		{"som-batch", "mrsom.epochs_s"},
		{"som-batch", "mrmpi.dispatch_p50_us"},
		{"som-batch", "mpi.reduce_bcast_ms"},
	} {
		if layer(want[0], want[1]) <= 0 {
			t.Errorf("%s: %s = %v, want > 0", want[0], want[1], layer(want[0], want[1]))
		}
	}
}

// checkContractLine asserts that the last line of a single-workload run
// carries exactly the declared metrics, each with its unit.
func checkContractLine(t *testing.T, w workloadResult, traced bool, declared []metric) {
	t.Helper()
	data, err := json.Marshal(contractLine(w, traced))
	if err != nil {
		t.Fatal(err)
	}
	var line struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatal(err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || !*line.Correct {
		t.Errorf("%s: contract line %s", w.Name, data)
	}
	if len(line.Metrics) != len(declared) {
		t.Errorf("%s traced=%t: %d metrics emitted, %d declared", w.Name, traced, len(line.Metrics), len(declared))
	}
	for _, m := range declared {
		got, ok := line.Metrics[m.name]
		if !ok || got.Value == nil || got.Unit != m.unit || math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0) {
			t.Errorf("%s: metric %s emitted as %+v, declared with unit %q", w.Name, m.name, got, m.unit)
		}
	}
}

// TestSpecMatchesBenchmarkJSON keeps the declared names and the emitted ones
// one list: BENCHMARK.json is exactly what -spec prints, and every name,
// unit and reason is inside the limits of the benchmark contract.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in spec.go; regenerate it with: go run ./benchmark -spec > BENCHMARK.json")
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads(scaleFull) {
		name(w.name)
		if len(w.why) == 0 || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		name(m.name)
		if !unitRE.MatchString(m.unit) || m.bound <= 0 || m.bound > 0.25 || (m.better != "lower" && m.better != "higher") {
			t.Errorf("end-to-end metric %+v is outside the contract", m)
		}
		hasSetup = hasSetup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for _, m := range perLayer {
		name(m.name)
		if !unitRE.MatchString(m.unit) || m.moves == "" || (m.better != "lower" && m.better != "higher") {
			t.Errorf("per-layer metric %+v is outside the contract", m)
		}
	}
}

// TestInternalImportsConfinedToAdapter keeps the program API the benchmark
// depends on visible in one file.
func TestInternalImportsConfinedToAdapter(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			for _, imp := range file.Imports {
				if strings.Contains(imp.Path.Value, "repro/") && filepath.Base(name) != "adapter.go" {
					t.Errorf("%s imports %s; only adapter.go may import the program", name, imp.Path.Value)
				}
			}
		}
	}
}

// TestSeedDeterminesInputs: same seed, same bytes; another seed, other bytes.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads(scaleSmoke) {
		digest := func(seed int64) string {
			dir := t.TempDir()
			if _, err := w.generate(seed, dir); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			d, err := inputDigest(dir)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			return d
		}
		first, again, other := digest(3), digest(3), digest(4)
		if first != again {
			t.Errorf("%s: seed 3 gave digests %s and %s", w.name, first, again)
		}
		if first == other {
			t.Errorf("%s: seeds 3 and 4 gave the same digest %s", w.name, first)
		}
	}
}

// TestOracleDetectsAlteredOutputs is the oracle's negative test: outputs
// equal to the oracle's pass, and one altered hits line, codebook cell or
// group count is detected.
func TestOracleDetectsAlteredOutputs(t *testing.T) {
	write := func(path string, data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	check := func(w *workload, job, oracle string, wantAttempted, wantFailed int) {
		t.Helper()
		attempted, failed, err := checkOutputs(w, job, oracle, 3)
		if err != nil {
			t.Fatal(err)
		}
		if attempted != wantAttempted || failed != wantFailed {
			t.Errorf("%s: attempted %d failed %d, want %d and %d", w.kind, attempted, failed, wantAttempted, wantFailed)
		}
	}

	t.Run("hits", func(t *testing.T) {
		job, oracle := t.TempDir(), t.TempDir()
		w := &workload{kind: kindBlast, ranks: 2}
		a := "q1\ts1\t98.0\t400\t0\t0\t400\t10\t410\t1e-200\t700.1\t+\n"
		b := "q1\ts2\t91.5\t400\t2\t0\t400\t10\t412\t1e-150\t600.0\t-\n"
		c := "q2\ts1\t99.0\t400\t0\t0\t400\t210\t610\t1e-210\t720.3\t+\n"
		write(filepath.Join(oracle, oracleHitsFile), []byte(a+b+c))
		// Same lines, another order and another split across ranks.
		write(filepath.Join(job, "hits.rank0000.tsv"), []byte(c))
		write(filepath.Join(job, "hits.rank0001.tsv"), []byte(b+a))
		check(w, job, oracle, 3, 0)
		write(filepath.Join(job, "hits.rank0001.tsv"), []byte(strings.Replace(b, "91.5", "91.6", 1)+a))
		check(w, job, oracle, 3, 1)
		// A hit for a query the oracle has none for, and a lost one.
		write(filepath.Join(job, "hits.rank0001.tsv"), []byte(b+a+strings.Replace(a, "q1", "q3", 1)))
		write(filepath.Join(job, "hits.rank0000.tsv"), nil)
		check(w, job, oracle, 3, 2)
	})

	t.Run("codebook", func(t *testing.T) {
		job, oracle := t.TempDir(), t.TempDir()
		w := &workload{kind: kindSOM}
		grid, err := newGrid(3, 2)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := newCodebook(grid, 4)
		if err != nil {
			t.Fatal(err)
		}
		cb.InitRandom(1)
		save := func(dir string) {
			t.Helper()
			if err := writeCodebook(filepath.Join(dir, codebookFile), cb, 1); err != nil {
				t.Fatal(err)
			}
		}
		save(oracle)
		cb.Weights[5] *= 1 + 1e-12 // a reordered floating-point reduce
		save(job)
		check(w, job, oracle, 6, 0)
		cb.Weights[5] *= 1 + 1e-6
		cb.Weights[6] = math.NaN() // same cell
		cb.Weights[23] += 0.5
		save(job)
		check(w, job, oracle, 6, 2)
	})

	t.Run("counts", func(t *testing.T) {
		job, oracle := t.TempDir(), t.TempDir()
		w := &workload{kind: kindShuffle, ranks: 2}
		records := func(kv ...uint64) []byte {
			var buf []byte
			for _, v := range kv {
				buf = binary.BigEndian.AppendUint64(buf, v)
			}
			return buf
		}
		write(filepath.Join(oracle, oracleCountsFile), records(1, 10, 2, 20, 3, 30))
		write(countsFile(job, 0), records(2, 20))
		write(countsFile(job, 1), records(3, 30, 1, 10))
		check(w, job, oracle, 3, 0)
		write(countsFile(job, 0), records(2, 21))
		check(w, job, oracle, 3, 1)
		// A group split across ranks has the right total and is still wrong.
		write(countsFile(job, 0), records(2, 20, 1, 4))
		write(countsFile(job, 1), records(3, 30, 1, 6))
		check(w, job, oracle, 3, 1)
	})

	t.Run("leak", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "spill"), 0o755); err != nil {
			t.Fatal(err)
		}
		if n, err := leakedFiles(dir); err != nil || n != 0 {
			t.Errorf("empty directories counted as %d leaked files (%v)", n, err)
		}
		write(filepath.Join(dir, "spill", "kv.page7"), []byte("x"))
		if n, err := leakedFiles(dir); err != nil || n != 1 {
			t.Errorf("a left-over spill page counted as %d leaked files (%v)", n, err)
		}
	})
}

// TestCompareVerdicts drives -compare on hand-made result files.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	save := func(name string, wall []float64, failed int) string {
		t.Helper()
		w := workloadResult{Name: "blastn-reads", Attempted: 100, Failed: failed, EndToEnd: map[string]stat{}}
		for _, m := range endToEnd {
			samples := []float64{5, 5.01, 4.99, 5.02}
			if m.name == "wall_s" {
				samples = wall
			}
			w.EndToEnd[m.name] = newStat(m.unit, samples)
		}
		data, err := json.Marshal(result{Workloads: []workloadResult{w}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := save("base.json", []float64{2.00, 2.02, 1.99, 2.01}, 0)
	for _, tc := range []struct {
		name    string
		wall    []float64
		failed  int
		verdict string
		worse   bool
	}{
		{"same", []float64{2.05, 2.03, 2.04, 2.06}, 0, "unchanged", false},
		{"slower", []float64{2.40, 2.42, 2.41, 2.43}, 0, "regressed", true},
		{"faster", []float64{1.50, 1.51, 1.49, 1.52}, 0, "improved", false},
		{"noisy", []float64{1.6, 2.4, 2.0, 2.9}, 0, "unresolved", false},
		{"wrong", []float64{2.00, 2.02, 1.99, 2.01}, 1, "fail_ratio", true},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(base, save(tc.name+".json", tc.wall, tc.failed), &out)
		if err != nil {
			t.Fatal(err)
		}
		var wallRow string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "wall_s") || (tc.failed > 0 && strings.Contains(line, "fail_ratio")) {
				wallRow = line
			}
		}
		if worse != tc.worse || !strings.Contains(wallRow, tc.verdict) {
			t.Errorf("%s: worse=%t, row %q; want worse=%t and %q", tc.name, worse, wallRow, tc.worse, tc.verdict)
		}
	}
}

// TestSpreadMatchesPythonQuantiles pins spread to
// statistics.quantiles(values, n=4), which the contract's acceptance uses.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	for _, tc := range []struct {
		values []float64
		want   float64 // (q3 - q1) / median, computed with Python
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{2.0, 2.1, 1.9, 2.4}, (2.325 - 1.925) / 2.05},
		{[]float64{3, 1}, (3.5 - 0.5) / 2},
		{[]float64{5}, 0},
	} {
		if got := spread(tc.values); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", tc.values, got, tc.want)
		}
	}
}

// TestSelfTimes: a layer's self time is its span minus what its children
// cover, overlapping children counted once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "replay", Start: 0, End: 100e9},
		{ID: 2, Parent: 1, Name: "unit", Start: 10e9, End: 50e9},
		{ID: 3, Parent: 2, Name: "search", Start: 20e9, End: 45e9},
		{ID: 4, Parent: 1, Name: "phase", Start: 60e9, End: 80e9}, // rank 0
		{ID: 5, Parent: 1, Name: "phase", Start: 70e9, End: 90e9}, // rank 1
	}
	self := selfTimes(spans)
	for name, want := range map[string]float64{"replay": 30, "unit": 15, "search": 25, "phase": 40} {
		if math.Abs(self[name]-want) > 1e-9 {
			t.Errorf("self time of %s = %v, want %v", name, self[name], want)
		}
	}
	merged := mergeSpans(spans, spans[:3])
	if last := merged[len(merged)-1]; last.ID != 8 || last.Parent != 7 {
		t.Errorf("merged span = %+v, want ID 8 under parent 7", last)
	}
}
