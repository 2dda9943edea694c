// Command traceview inspects Chrome trace_event JSON files — the
// trace.json.gz that the -obs flag of cmd/mrblast and cmd/mrsom writes, or
// any obs.WriteChromeTrace output. By default it prints a per-rank
// per-phase summary and the slowest spans; with -check it validates the
// trace's structure (JSON parses, spans nest, begins have ends, per-rank
// clocks are monotonic, instant events carry in-range ranks and
// timestamps) and exits non-zero on a malformed trace; with -analyze it
// runs the performance analyzer (per-rank busy/comm/idle time, per-phase
// load imbalance, master dispatch latency, straggler ranking, exact
// cross-rank critical path, wait-blame); with -causal it summarizes the
// happens-before DAG itself (provenance matching, unmatched traffic,
// per-task/per-epoch lineage); with -blame it prints just the blocked-on
// tables; with -comm it renders a communication matrix (the comm.json.gz
// of mrblast/mrsom -obs: per-phase totals, src×dst byte grid, heaviest
// links, α–β cost-model fit) — standalone, or folded into the -analyze
// report as its comm section.
//
// Inputs may be gzip-compressed (detected by content, regardless of name);
// -o writes the report to a file instead of stdout, compressing when the
// name ends in .gz.
//
// Usage:
//
//	traceview trace.json
//	traceview -top 20 trace.json.gz
//	traceview -check trace.json
//	traceview -analyze -o report.txt.gz trace.json
//	traceview -causal trace.json
//	traceview -blame trace.json
//	traceview -comm comm.json
//	traceview -analyze -comm comm.json trace.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/causal"
	"repro/internal/obs/comm"
)

// main delegates to run and converts exit() sentinels into process exit
// codes after run's deferred cleanup (the -o writer's gzip trailer) has
// flushed.
func main() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(exitSentinel); ok {
				os.Exit(exitCode)
			}
			panic(r)
		}
	}()
	run()
}

func run() {
	check := flag.Bool("check", false, "validate the trace structure and exit (non-zero on failure)")
	analyzeFlag := flag.Bool("analyze", false, "run trace analytics: busy/comm/idle, load imbalance, dispatch latency, stragglers, critical path, wait-blame")
	causalFlag := flag.Bool("causal", false, "summarize the causal cross-rank DAG: provenance matching, unmatched traffic, task/epoch lineage")
	blameFlag := flag.Bool("blame", false, "print the per-rank blocked-on (wait-blame) tables")
	commPath := flag.String("comm", "", "render a comm matrix JSON (comm.json.gz of mrblast/mrsom -obs); alone or as an -analyze section")
	top := flag.Int("top", 10, "number of slowest spans / lineages to show")
	outPath := flag.String("o", "", "write the report here instead of stdout (.gz compresses)")
	flag.Parse()

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		w, err := obs.CreateOutput(*outPath)
		fail(err)
		out = w
		defer func() { fail(w.Close()) }()
	}

	var matrix *comm.Matrix
	if *commPath != "" {
		f, err := obs.OpenInput(*commPath)
		fail(err)
		matrix, err = comm.ReadMatrix(f)
		f.Close()
		fail(err)
	}
	if matrix != nil && !*analyzeFlag && flag.NArg() == 0 {
		// Comm-only mode: no trace needed.
		fail(matrix.WriteReport(out, *top))
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: traceview [-check] [-analyze] [-causal] [-blame] [-comm comm.json] [-top N] [-o report] trace.json")
		exit(2)
	}
	path := flag.Arg(0)

	f, err := obs.OpenInput(path)
	fail(err)
	events, meta, err := obs.ReadTraceMeta(f)
	f.Close()
	fail(err)

	if *check {
		if err := obs.Validate(events); err != nil {
			fmt.Fprintf(os.Stderr, "traceview: %s: INVALID: %v\n", path, err)
			exit(1)
		}
		if err := obs.ValidateInstants(events, meta.NumRanks); err != nil {
			fmt.Fprintf(os.Stderr, "traceview: %s: INVALID: %v\n", path, err)
			exit(1)
		}
		ranks := map[int]bool{}
		for _, ev := range events {
			ranks[ev.Rank] = true
		}
		fmt.Fprintf(out, "traceview: %s: OK (%d events, %d ranks)\n", path, len(events), len(ranks))
		return
	}

	if *analyzeFlag || *causalFlag || *blameFlag {
		g := causal.Build(events)
		if completeSpans(g) == 0 {
			fmt.Fprintf(os.Stderr, "traceview: %s: no complete spans — every Begin is missing its End, so there is nothing to analyze (was the trace written mid-run, or truncated?)\n", path)
			exit(1)
		}
		if *causalFlag {
			writeCausal(out, g, *top)
		}
		if *blameFlag && !*analyzeFlag {
			blame := g.Blame()
			fail(analyze.WriteBlame(out, blame, causal.Coverage(blame)))
		}
		if *analyzeFlag {
			rep := analyze.Analyze(events)
			rep.Comm = analyze.AnalyzeComm(matrix)
			fail(analyze.WriteReport(out, rep))
		}
		return
	}
	if matrix != nil {
		fail(matrix.WriteReport(out, *top))
		fmt.Fprintln(out)
	}

	stats := obs.Summarize(events)
	if len(stats) == 0 {
		fmt.Fprintf(out, "traceview: %s: no spans\n", path)
		return
	}
	fmt.Fprintf(out, "per-phase summary (%d events):\n", len(events))
	fail(obs.WriteSummaryTable(out, stats))
	if *top > 0 {
		fmt.Fprintf(out, "\ntop %d slowest spans:\n", *top)
		fail(obs.WriteTopSpans(out, obs.TopSlowest(events, *top)))
	}
}

// completeSpans counts spans whose End was observed across all ranks.
func completeSpans(g *causal.Graph) int {
	n := 0
	for _, spans := range g.Spans {
		for _, sp := range spans {
			if sp.Complete {
				n++
			}
		}
	}
	return n
}

// writeCausal renders the DAG summary: how the cross-rank stitching went
// (exact seq matches vs FIFO guesses vs orphans) and the longest per-task /
// per-epoch lineages.
func writeCausal(w io.Writer, g *causal.Graph, top int) {
	blocking := 0
	for _, e := range g.Edges {
		if e.Blocking {
			blocking++
		}
	}
	fmt.Fprintf(w, "causal DAG: %d rank(s), wall clock %v\n",
		g.NumRanks, time.Duration(g.MaxTS-g.MinTS).Round(time.Microsecond))
	fmt.Fprintf(w, "  edges: %d (%d blocking), %d seq-matched, %d fifo-fallback\n",
		len(g.Edges), blocking, g.SeqMatched, g.FIFOMatched)
	fmt.Fprintf(w, "  unmatched: %d recv(s) without a send, %d send(s) never received\n",
		g.UnmatchedRecvs, g.UnmatchedSends)
	fmt.Fprintf(w, "  barriers: %d occurrence(s); page flows: %d\n", len(g.Barriers), len(g.Pages))

	lins := g.Lineages()
	if len(lins) == 0 {
		return
	}
	shown := lins
	if top > 0 && len(shown) > top {
		// Longest end-to-end lineages first.
		shown = append([]causal.Lineage(nil), lins...)
		sort.Slice(shown, func(i, j int) bool {
			return shown[i].End-shown[i].Start > shown[j].End-shown[j].Start
		})
		shown = shown[:top]
	}
	fmt.Fprintf(w, "\nlineage (%d of %d, longest first):\n", len(shown), len(lins))
	for _, l := range shown {
		fmt.Fprintf(w, "  %s %d rank %d %v:", l.Unit, l.ID, l.Rank,
			time.Duration(l.End-l.Start).Round(time.Microsecond))
		for i, st := range l.Stages {
			if i > 0 {
				fmt.Fprint(w, " →")
			}
			fmt.Fprintf(w, " %s %v", st.Name, time.Duration(st.End-st.Start).Round(time.Microsecond))
		}
		fmt.Fprintln(w)
	}
}

// exiting through exit() (not os.Exit directly) lets main's deferred -o
// close run first, so a compressed report is never left without its gzip
// trailer.
var exitCode int

func exit(code int) {
	exitCode = code
	panic(exitSentinel{})
}

type exitSentinel struct{}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "traceview:", err)
		exit(1)
	}
}
