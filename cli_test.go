package repro

// End-to-end CLI integration: builds the command binaries once and drives
// the full pipeline the README documents — generate → formatdb → shred →
// mrblast → mergehits → blastview, plus genseq/mrsom — through their real
// main packages.

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/comm"
)

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// buildCLIs compiles all cmd binaries into a shared temp dir.
func buildCLIs(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "mrbio-cli")
		if buildErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", buildDir+string(os.PathSeparator), "./cmd/...")
		out, err := cmd.CombinedOutput()
		if err != nil {
			buildErr = err
			buildDir = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building CLIs: %v\n%s", buildErr, buildDir)
	}
	return buildDir
}

func runCLI(t *testing.T, dir, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildCLIs(t), name), args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v failed: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline is not short")
	}
	dir := t.TempDir()

	// Synthetic community: 4 genomes with one strain each.
	out := runCLI(t, dir, "genseq", "-mode", "genomes", "-n", "4",
		"-minlen", "3000", "-maxlen", "6000", "-strains", "1",
		"-identity", "0.93", "-out", "all.fa")
	if !strings.Contains(out, "wrote 8 sequences") {
		t.Fatalf("genseq output: %s", out)
	}

	// Split genomes (DB) from strains (query source) by ID.
	all, err := os.ReadFile(filepath.Join(dir, "all.fa"))
	if err != nil {
		t.Fatal(err)
	}
	var db, strains strings.Builder
	target := &db
	for _, line := range strings.SplitAfter(string(all), "\n") {
		if strings.HasPrefix(line, ">") {
			if strings.Contains(line, ".s") {
				target = &strains
			} else {
				target = &db
			}
		}
		target.WriteString(line)
	}
	os.WriteFile(filepath.Join(dir, "refs.fa"), []byte(db.String()), 0o644)
	os.WriteFile(filepath.Join(dir, "strains.fa"), []byte(strains.String()), 0o644)

	out = runCLI(t, dir, "formatdb", "-in", "refs.fa", "-out", "db",
		"-name", "refdb", "-target-residues", "6000")
	if !strings.Contains(out, "partition") {
		t.Fatalf("formatdb output: %s", out)
	}

	out = runCLI(t, dir, "shred", "-in", "strains.fa", "-out", "reads.fa")
	if !strings.Contains(out, "fragments") {
		t.Fatalf("shred output: %s", out)
	}

	out = runCLI(t, dir, "mrblast", "-query", "reads.fa", "-db", "db/refdb.json",
		"-ranks", "4", "-block-size", "16", "-evalue", "1e-6", "-out", "hits")
	if !strings.Contains(out, "hits in") {
		t.Fatalf("mrblast output: %s", out)
	}

	out = runCLI(t, dir, "mergehits", "-in", "hits", "-out", "merged.tsv")
	if !strings.Contains(out, "hits for") {
		t.Fatalf("mergehits output: %s", out)
	}
	merged, err := os.ReadFile(filepath.Join(dir, "merged.tsv"))
	if err != nil || len(merged) == 0 {
		t.Fatalf("merged.tsv empty or unreadable: %v", err)
	}

	out = runCLI(t, dir, "blastview", "-hits", "merged.tsv",
		"-query", "reads.fa", "-db", "db/refdb.json", "-n", "1")
	if !strings.Contains(out, "Query") || !strings.Contains(out, "Sbjct") {
		t.Fatalf("blastview output: %s", out)
	}
}

func TestCLISOMPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline is not short")
	}
	dir := t.TempDir()
	runCLI(t, dir, "genseq", "-mode", "vectors", "-n", "400", "-dim", "8", "-out", "v.bin")
	out := runCLI(t, dir, "mrsom", "-data", "v.bin", "-ranks", "3",
		"-w", "8", "-h", "8", "-epochs", "8",
		"-umatrix", "um.pgm", "-codebook", "cb.ppm",
		"-checkpoint", "ck.somc")
	if !strings.Contains(out, "quantization error") {
		t.Fatalf("mrsom output: %s", out)
	}
	for _, f := range []string{"um.pgm", "cb.ppm", "ck.somc"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing output %s: %v", f, err)
		}
	}
	// Resume from the checkpoint: must succeed and not retrain from zero.
	out = runCLI(t, dir, "mrsom", "-data", "v.bin", "-ranks", "3",
		"-w", "8", "-h", "8", "-epochs", "8", "-checkpoint", "ck.somc")
	if !strings.Contains(out, "quantization error") {
		t.Fatalf("mrsom resume output: %s", out)
	}
}

// TestCLIObsDir: a successful `mrblast -obs o` run leaves the whole
// observability account of that one run in o/ under its fixed names — a
// trace traceview accepts, a comm matrix over both ranks, a conformant
// Prometheus exposition, per-phase CPU profiles and a heap snapshot — and
// no flight dump, which only a deadlock, panic or SIGQUIT writes.
func TestCLIObsDir(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline is not short")
	}
	dir := t.TempDir()
	runCLI(t, dir, "genseq", "-mode", "genomes", "-n", "2",
		"-minlen", "2000", "-maxlen", "3000", "-strains", "1",
		"-identity", "0.93", "-out", "all.fa")
	runCLI(t, dir, "formatdb", "-in", "all.fa", "-out", "db",
		"-name", "refdb", "-target-residues", "4000")
	runCLI(t, dir, "shred", "-in", "all.fa", "-out", "reads.fa")
	runCLI(t, dir, "mrblast", "-query", "reads.fa", "-db", "db/refdb.json", "-ranks", "2",
		"-block-size", "8", "-evalue", "1e-6", "-out", "hits", "-obs", "o")
	o := filepath.Join(dir, "o")

	if out := runCLI(t, dir, "traceview", "-check", "o/trace.json.gz"); !strings.Contains(out, "OK (") {
		t.Errorf("traceview -check output: %s", out)
	}
	f, err := obs.OpenInput(filepath.Join(o, "comm.json.gz"))
	if err != nil {
		t.Fatalf("comm matrix not written: %v", err)
	}
	defer f.Close()
	m, err := comm.ReadMatrix(f)
	if err != nil {
		t.Fatalf("comm matrix not parseable: %v", err)
	}
	if m.NumRanks != 2 || len(m.Links) == 0 {
		t.Errorf("comm matrix implausible: %d ranks, %d links", m.NumRanks, len(m.Links))
	}
	prom, err := os.ReadFile(filepath.Join(o, "metrics.prom"))
	if err != nil {
		t.Fatalf("metrics not written: %v", err)
	}
	if err := obs.ValidatePrometheus(strings.NewReader(string(prom))); err != nil {
		t.Errorf("metrics.prom not conformant: %v\n%s", err, prom)
	}
	if cpu, _ := filepath.Glob(filepath.Join(o, "cpu.*.pprof")); len(cpu) == 0 {
		t.Error("no per-phase CPU profile written")
	}
	if _, err := os.Stat(filepath.Join(o, "heap.pprof")); err != nil {
		t.Errorf("heap profile not written: %v", err)
	}
	if _, err := os.Stat(filepath.Join(o, "flight.json.gz")); !os.IsNotExist(err) {
		t.Errorf("clean run left a flight dump (stat err %v)", err)
	}
}

// TestCLIFailedRunKeepsArtifacts: a run that fails inside the job still
// writes its -obs trace and comm matrix, so the failure can be diagnosed. A
// volume corrupted after formatdb passes the pre-flight size check and
// trips its payload checksum only when a map task loads it.
func TestCLIFailedRunKeepsArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline is not short")
	}
	dir := t.TempDir()
	runCLI(t, dir, "genseq", "-mode", "genomes", "-n", "2",
		"-minlen", "2000", "-maxlen", "3000", "-strains", "1",
		"-identity", "0.93", "-out", "all.fa")
	runCLI(t, dir, "formatdb", "-in", "all.fa", "-out", "db",
		"-name", "refdb", "-target-residues", "4000")
	runCLI(t, dir, "shred", "-in", "all.fa", "-out", "reads.fa")

	vols, err := filepath.Glob(filepath.Join(dir, "db", "*.vol"))
	if err != nil || len(vols) == 0 {
		t.Fatalf("no formatdb volumes: %v", err)
	}
	data, err := os.ReadFile(vols[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := len(data) / 2; i < len(data)/2+64; i++ {
		data[i] ^= 0xFF
	}
	if err := os.WriteFile(vols[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(filepath.Join(buildCLIs(t), "mrblast"),
		"-query", "reads.fa", "-db", "db/refdb.json", "-ranks", "3",
		"-out", "hits", "-obs", "o")
	cmd.Dir = dir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Fatal("mrblast succeeded on a corrupt volume")
	}
	if !strings.Contains(stderr.String(), "rank ") {
		t.Errorf("stderr does not name the failing rank: %s", stderr.String())
	}

	out := runCLI(t, dir, "traceview", "-check", "o/trace.json.gz")
	var events int
	if _, rest, ok := strings.Cut(out, "OK ("); !ok {
		t.Errorf("traceview -check output: %s", out)
	} else if _, err := fmt.Sscanf(rest, "%d events", &events); err != nil || events == 0 {
		t.Errorf("trace of the failed run is empty: %s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "o", "comm.json.gz")); err != nil {
		t.Errorf("comm matrix not written: %v", err)
	}
}

func TestCLIBenchfigQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline is not short")
	}
	dir := t.TempDir()
	out := runCLI(t, dir, "benchfig", "-fig", "4", "-csv", "csv")
	if !strings.Contains(out, "fig4") {
		t.Fatalf("benchfig output: %s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "csv", "fig4.csv")); err != nil {
		t.Errorf("missing CSV: %v", err)
	}
}
