package repro

// End-to-end CLI integration: builds the command binaries once and drives
// the full pipeline the README documents — generate → formatdb → shred →
// mrblast → mergehits → blastview, plus genseq/mrsom — through their real
// main packages.

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

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

// TestMetricsEndpointSmoke is the CI conformance gate for the live /metrics
// route: it starts mrblast with a status server, comm accounting, and a
// post-run linger, scrapes /metrics after the run completes, and validates
// the exposition with the repo's own Prometheus parser. The -comm matrix
// file is checked as a side effect.
func TestMetricsEndpointSmoke(t *testing.T) {
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

	cmd := exec.Command(filepath.Join(buildCLIs(t), "mrblast"),
		"-query", "reads.fa", "-db", "db/refdb.json", "-ranks", "2",
		"-block-size", "8", "-evalue", "1e-6", "-out", "hits",
		"-status", "127.0.0.1:0", "-status-linger", "60s", "-comm", "comm.json")
	cmd.Dir = dir
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// The status line prints before the run, the comm-matrix line after it;
	// waiting for the latter guarantees the scrape sees the finished run.
	var addr string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if _, rest, ok := strings.Cut(line, "live status at http://"); ok {
			addr, _, _ = strings.Cut(rest, "/status")
		}
		if strings.Contains(line, "wrote comm matrix") {
			break
		}
	}
	if addr == "" {
		t.Fatal("mrblast never printed the live status address")
	}

	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scraping /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d\n%s", resp.StatusCode, body)
	}
	text := string(body)
	if err := obs.ValidatePrometheus(strings.NewReader(text)); err != nil {
		t.Fatalf("/metrics exposition not conformant: %v\n%s", err, text)
	}
	for _, want := range []string{"mpi_sends_total", "mpi_comm_bytes_total"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s:\n%s", want, text)
		}
	}

	f, err := os.Open(filepath.Join(dir, "comm.json"))
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
}

// TestCLIFailedRunKeepsArtifacts: a run that fails inside the job still
// writes its -trace and -comm files, so the failure can be diagnosed. A
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
		"-out", "hits", "-trace", "t.json", "-comm", "c.json")
	cmd.Dir = dir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Fatal("mrblast succeeded on a corrupt volume")
	}
	if !strings.Contains(stderr.String(), "rank ") {
		t.Errorf("stderr does not name the failing rank: %s", stderr.String())
	}

	out := runCLI(t, dir, "traceview", "-check", "t.json")
	var events int
	if _, rest, ok := strings.Cut(out, "OK ("); !ok {
		t.Errorf("traceview -check output: %s", out)
	} else if _, err := fmt.Sscanf(rest, "%d events", &events); err != nil || events == 0 {
		t.Errorf("trace of the failed run is empty: %s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "c.json")); err != nil {
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
