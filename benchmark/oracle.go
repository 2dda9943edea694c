package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// The checks behind failed ÷ attempted: a job's outputs against the serial
// replay's, counted in the unit a user would notice — queries with wrong hit
// lines, codebook cells off the serial map, key groups with a wrong count.

// codebookTolerance is the relative error a parallel codebook weight may
// have: under master style the order of the floating-point reduce depends on
// which rank took which block, which may move low-order bits.
const codebookTolerance = 1e-9

// checkOutputs compares the outputs a job left in jobOut with the oracle's
// in oracleOut. queries is the blast workloads' query count: a query without
// hits on either side is still one that was attempted.
func checkOutputs(w *workload, jobOut, oracleOut string, queries int) (attempted, failed int, err error) {
	switch w.kind {
	case kindBlast:
		rankFiles, err := filepath.Glob(filepath.Join(jobOut, "hits.rank*.tsv"))
		if err != nil {
			return 0, 0, err
		}
		if len(rankFiles) != w.ranks {
			return 0, 0, fmt.Errorf("%d hits files in %s, want one per rank (%d)", len(rankFiles), jobOut, w.ranks)
		}
		got, err := loadHits(rankFiles)
		if err != nil {
			return 0, 0, err
		}
		want, err := loadHits([]string{filepath.Join(oracleOut, oracleHitsFile)})
		if err != nil {
			return 0, 0, err
		}
		return queries, diffHits(want, got), nil
	case kindSOM:
		got, _, err := readCodebook(filepath.Join(jobOut, codebookFile))
		if err != nil {
			return 0, 0, err
		}
		want, _, err := readCodebook(filepath.Join(oracleOut, codebookFile))
		if err != nil {
			return 0, 0, err
		}
		if len(got.Weights) != len(want.Weights) || got.Dim != want.Dim {
			return 0, 0, fmt.Errorf("codebook shape %d/%d, oracle %d/%d", len(got.Weights), got.Dim, len(want.Weights), want.Dim)
		}
		return len(want.Weights) / want.Dim, diffCodebooks(want.Weights, got.Weights, want.Dim), nil
	case kindShuffle:
		var rankFiles []string
		for r := 0; r < w.ranks; r++ {
			rankFiles = append(rankFiles, countsFile(jobOut, r))
		}
		got, err := loadCounts(rankFiles)
		if err != nil {
			return 0, 0, err
		}
		want, err := loadCounts([]string{filepath.Join(oracleOut, oracleCountsFile)})
		if err != nil {
			return 0, 0, err
		}
		return len(want), diffCounts(want, got), nil
	}
	return 0, 0, fmt.Errorf("workload %s: unknown kind %q", w.name, w.kind)
}

// loadHits reads hit lines and groups them by query (the first column),
// sorted within each query: the hit-line multiset per query.
func loadHits(paths []string) (map[string][]string, error) {
	hits := map[string][]string{}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			query, _, _ := strings.Cut(line, "\t")
			hits[query] = append(hits[query], line)
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	for _, lines := range hits {
		slices.Sort(lines)
	}
	return hits, nil
}

// diffHits counts the queries whose hit lines differ between want and got,
// including queries only one side reports.
func diffHits(want, got map[string][]string) int {
	failed := 0
	for query, lines := range want {
		if !slices.Equal(lines, got[query]) {
			failed++
		}
	}
	for query := range got {
		if _, ok := want[query]; !ok {
			failed++
		}
	}
	return failed
}

// diffCodebooks counts the cells (neurons) with a weight further than
// codebookTolerance, relative, from the oracle's.
func diffCodebooks(want, got []float64, dim int) int {
	failed := 0
	for cell := 0; cell*dim < len(want); cell++ {
		for i := cell * dim; i < (cell+1)*dim; i++ {
			diff := math.Abs(want[i] - got[i])
			if diff > codebookTolerance*math.Max(math.Abs(want[i]), math.Abs(got[i])) || math.IsNaN(diff) {
				failed++
				break
			}
		}
	}
	return failed
}

// loadCounts reads (8-byte key, 8-byte count) records. A key that appears
// twice was split across groups, which no count can make right.
func loadCounts(paths []string) (map[uint64]uint64, error) {
	counts := map[uint64]uint64{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if len(data)%16 != 0 {
			return nil, fmt.Errorf("%s: %d bytes is not a whole number of records", path, len(data))
		}
		for ; len(data) > 0; data = data[16:] {
			key := binary.BigEndian.Uint64(data)
			if _, dup := counts[key]; dup {
				counts[key] = math.MaxUint64
				continue
			}
			counts[key] = binary.BigEndian.Uint64(data[8:])
		}
	}
	return counts, nil
}

// diffCounts counts the key groups whose count differs between want and
// got, including groups only one side has.
func diffCounts(want, got map[uint64]uint64) int {
	failed := 0
	for key, n := range want {
		if got[key] != n {
			failed++
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			failed++
		}
	}
	return failed
}

// leakedFiles counts the regular files under dir: after a child has exited,
// its temp directory must hold no spill page or sort run.
func leakedFiles(dir string) (int, error) {
	n := 0
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			n++
		}
		return err
	})
	return n, err
}
