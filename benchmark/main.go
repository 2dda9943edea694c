// Command benchmark is the repo's end-to-end and per-layer benchmark: it
// generates seeded inputs, runs whole mrblast, mrsom and mrmpi-shuffle jobs
// in child processes, checks every output against a serial oracle, and
// prints every metric BENCHMARK.json declares. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout, os.Stderr))
}

func parentMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names string
	fs.StringVar(&names, "workload", "", "comma-separated workloads to run (default all)")
	fs.StringVar(&names, "workloads", "", "alias of -workload")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", runSeconds, "how long each workload's timed jobs run")
	repeats := fs.Int("repeats", 0, "run exactly this many timed jobs per workload instead of -seconds")
	trace := fs.Int("trace", 0, "1 adds the traced pass and reports the per-layer metrics")
	scale := fs.String("scale", scaleFull, "full, or smoke: every workload shrunk to well under a second")
	out := fs.String("out", "", "write the full result, with every sample, to this JSON file")
	compare := fs.Bool("compare", false, "compare two -out files: benchmark -compare A.json B.json")
	spec := fs.Bool("spec", false, "print BENCHMARK.json as the tables in spec.go declare it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	switch {
	case *spec:
		data, err := specJSON()
		if err != nil {
			return fail(err)
		}
		stdout.Write(data)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files"))
		}
		worse, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	// The work directory is relative, and so are the paths in BENCHMARK.json.
	if _, err := os.Stat("go.mod"); err != nil {
		return fail(fmt.Errorf("start the benchmark from the root of the repository: %w", err))
	}
	if *scale != scaleFull && *scale != scaleSmoke {
		return fail(fmt.Errorf("unknown scale %q", *scale))
	}
	selected, err := selectWorkloads(names, *scale)
	if err != nil {
		return fail(err)
	}
	res, err := runBenchmark(options{
		workloads: selected, scale: *scale, seed: *seed,
		seconds: *seconds, repeats: *repeats, trace: *trace != 0, workDir: workRoot,
	}, stderr)
	if err != nil {
		return fail(err)
	}
	if *out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	printResult(stdout, res)
	correct := true
	for _, w := range res.Workloads {
		correct = correct && w.correct()
	}
	if len(res.Workloads) == 1 {
		if err := json.NewEncoder(stdout).Encode(contractLine(res.Workloads[0], *trace != 0)); err != nil {
			return fail(err)
		}
	}
	if !correct {
		return 1
	}
	return 0
}

// printResult lists every metric by name with its unit.
func printResult(w io.Writer, res *result) {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	for _, wl := range res.Workloads {
		fmt.Fprintf(tw, "%s\tseed %d\t%d %s\tinputs sha256 %s\n", wl.Name, res.Seed, wl.Work, wl.WorkUnit, wl.InputSHA256)
		fmt.Fprintf(tw, "  failed\t%d of %d\tleaked_files %d\n", wl.Failed, wl.Attempted, wl.LeakedFiles)
		for _, m := range endToEnd {
			st := wl.EndToEnd[m.name]
			fmt.Fprintf(tw, "  %s\t%.6g %s\tmin %.6g  max %.6g  n %d\n", m.name, st.Median, st.Unit, st.Min, st.Max, st.N)
		}
		// A layer the workload does not exercise reports 0 on every metric;
		// the table leaves those rows out.
		for _, m := range perLayer {
			if v := wl.PerLayer[m.name]; v != 0 {
				fmt.Fprintf(tw, "  %s\t%.6g %s\tmoves %s\n", m.name, v, m.unit, m.moves)
			}
		}
	}
	tw.Flush()
}

// contractLine is the last line of a single-workload run: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func contractLine(w workloadResult, traced bool) any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, m := range perLayer {
			metrics[m.name] = value{w.PerLayer[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.name] = value{w.EndToEnd[m.name].Median, m.unit}
		}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{w.correct(), w.Attempted, w.Failed, metrics}
}

// loadResult reads an -out file.
func loadResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// compareFiles prints a verdict per (workload, end-to-end metric) of result
// file b against baseline a, and reports whether b is worse: a metric
// regressed, or a larger share of checks failed.
func compareFiles(a, b string, w io.Writer) (worse bool, err error) {
	base, err := loadResult(a)
	if err != nil {
		return false, err
	}
	cand, err := loadResult(b)
	if err != nil {
		return false, err
	}
	byName := map[string]workloadResult{}
	for _, wl := range cand.Workloads {
		byName[wl.Name] = wl
	}
	unresolved := base.TimingsUnresolved || cand.TimingsUnresolved
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tcandidate\tchange\tspread\tverdict")
	for _, bw := range base.Workloads {
		cw, ok := byName[bw.Name]
		if !ok {
			continue
		}
		for _, m := range endToEnd {
			bs, cs := bw.EndToEnd[m.name], cw.EndToEnd[m.name]
			v := verdict(m, bs.Samples, cs.Samples, unresolved)
			worse = worse || v == "regressed"
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.1f%% / %.1f%%\t%s\n", bw.Name, m.name,
				bs.Median, cs.Median, 100*(cs.Median/bs.Median-1), 100*spread(bs.Samples), 100*spread(cs.Samples), v)
		}
		if failRatio(cw) > failRatio(bw) {
			worse = true
			fmt.Fprintf(tw, "%s\tfail_ratio\t%.6g\t%.6g\t\t\tregressed\n", bw.Name, failRatio(bw), failRatio(cw))
		}
	}
	return worse, tw.Flush()
}

func failRatio(w workloadResult) float64 {
	if w.Attempted == 0 {
		return 0
	}
	return float64(w.Failed) / float64(w.Attempted)
}

// verdict judges candidate samples against base samples of metric m: the
// medians may differ by m.bound of the base median before it counts, and no
// verdict is given when either side's own quartile spread exceeds the bound.
func verdict(m metric, base, cand []float64, timingsUnresolved bool) string {
	if len(base) == 0 || len(cand) == 0 || timingsUnresolved ||
		spread(base) > m.bound || spread(cand) > m.bound {
		return "unresolved"
	}
	change := median(cand)/median(base) - 1
	if m.better == "higher" {
		change = -change
	}
	switch {
	case change > m.bound:
		return "regressed"
	case change < -m.bound:
		return "improved"
	}
	return "unchanged"
}
