// Command mrblast runs the paper's parallel BLAST: a matrix-split search
// of a query FASTA against a partitioned database over MapReduce-MPI in
// master–worker mode, writing one hits file per rank.
//
// Usage:
//
//	mrblast -query reads.fa -db dbdir/refdb.json -ranks 8 -out results/
//	mrblast -query prots.fa -db dbdir/protdb.json -protein -topk 50 -ranks 8 -out results/
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	obscomm "repro/internal/obs/comm"
	"repro/internal/obs/live"
)

func main() {
	query := flag.String("query", "", "query FASTA file (required)")
	db := flag.String("db", "", "database manifest JSON (required)")
	ranks := flag.Int("ranks", runtime.NumCPU(), "MPI ranks (rank 0 is the master)")
	blockSize := flag.Int("block-size", 1000, "queries per work-unit block")
	topK := flag.Int("topk", 0, "max hits per query (0 = all passing the cutoff)")
	evalue := flag.Float64("evalue", 10, "E-value cutoff")
	protein := flag.Bool("protein", false, "protein search (blastp); default nucleotide (blastn)")
	filter := flag.Bool("filter", true, "low-complexity query masking (DUST/SEG)")
	out := flag.String("out", "mrblast-out", "output directory (one hits file per rank)")
	excludeSelf := flag.Bool("exclude-self", false, "drop hits of query fragments against their parent sequence")
	iterBlocks := flag.Int("iter-blocks", 0, "query blocks per MapReduce iteration (0 = all at once)")
	cache := flag.Int("cache", 1, "DB partitions cached per rank")
	mapWorkers := flag.Int("map-workers", 1, "goroutines per rank for map tasks (0 = auto: cores/ranks; output identical to serial)")
	strand := flag.Int("strand", 0, "nucleotide strand: 0 both, 1 plus, -1 minus")
	ungapped := flag.Bool("ungapped", false, "skip gapped extension (ungapped statistics)")
	locality := flag.Bool("locality", false, "locality-aware master: prefer giving workers partitions they already hold")
	dynamic := flag.Bool("dynamic-blocks", false, "taper query blocks toward the end of the set")
	format := flag.String("format", "tsv", "output format: tsv | jsonl")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON of the run (.gz compresses; view in Perfetto or cmd/traceview)")
	metrics := flag.Bool("metrics", false, "print the run's metrics registry on completion")
	status := flag.String("status", "", "serve live per-rank status over HTTP on this address (e.g. :8080); watch with curl addr/status.txt")
	statusLinger := flag.Duration("status-linger", 0, "keep the -status server up this long after the run so scrapers can collect final /metrics")
	commPath := flag.String("comm", "", "account per-rank communication; write the merged comm matrix JSON here (.gz compresses; render with traceview -comm)")
	flightPath := flag.String("flight", "", "arm the flight recorder; a post-mortem dump is written here (.gz compresses) if the run deadlocks, panics, or gets SIGQUIT")
	profileDir := flag.String("profile", "", "capture per-phase CPU profiles and an end-of-run heap snapshot into this directory")
	flag.Parse()
	if *query == "" || *db == "" {
		fail(fmt.Errorf("-query and -db are required"))
	}
	if *ranks < 1 {
		fail(fmt.Errorf("need at least 1 rank, got %d", *ranks))
	}

	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer()
	}
	var reg *obs.Registry
	if *metrics || *status != "" {
		reg = obs.NewRegistry()
	}
	var commT *obscomm.Tracker
	if *commPath != "" {
		commT = obscomm.NewTracker()
	}
	var flight *obs.FlightRecorder
	if *flightPath != "" {
		flight = obs.NewFlightRecorder(obs.DefaultFlightEvents)
	}
	var prof *obs.PhaseProfiler
	if *profileDir != "" {
		p, err := obs.StartPhaseProfiler(*profileDir)
		fail(err)
		prof = p
	}
	var board *obs.Board
	if *status != "" {
		board = obs.NewBoard()
		srv := live.New(board, tracer, reg, commT)
		fail(srv.Start(*status))
		defer srv.Close()
		fmt.Printf("mrblast: live status at http://%s/status (text: /status.txt, metrics: /metrics)\n", srv.Addr())
		if *statusLinger > 0 {
			defer time.Sleep(*statusLinger)
		}
	}

	start := time.Now()
	sum, err := core.RunBlast(*ranks, core.BlastJob{
		QueryPath:          *query,
		ManifestPath:       *db,
		BlockSize:          *blockSize,
		Protein:            *protein,
		TopK:               *topK,
		EValueCutoff:       *evalue,
		Filter:             *filter,
		OutDir:             *out,
		ExcludeSelfHits:    *excludeSelf,
		BlocksPerIteration: *iterBlocks,
		CacheCapacity:      *cache,
		MapWorkers:         core.AutoMapWorkers(*mapWorkers, *ranks),
		Strand:             int8(*strand),
		UngappedOnly:       *ungapped,
		LocalityAware:      *locality,
		DynamicBlocks:      *dynamic,
		OutFormat:          *format,
		Trace:              tracer,
		Metrics:            reg,
		Board:              board,
		Comm:               commT,
		Flight:             flight,
		FlightPath:         *flightPath,
		Profile:            prof,
	})
	if prof != nil {
		files, perr := prof.Stop()
		fmt.Printf("mrblast: wrote %d profile file(s) under %s (go tool pprof <file>)\n", len(files), *profileDir)
		if perr != nil {
			fmt.Fprintln(os.Stderr, "mrblast: profiling:", perr)
		}
	}
	if tracer != nil {
		fail(writeTrace(*tracePath, tracer))
		fmt.Printf("mrblast: wrote trace to %s\n", *tracePath)
	}
	if reg != nil {
		fail(reg.Snapshot().WriteTable(os.Stdout))
	}
	if commT != nil {
		fail(writeComm(*commPath, commT))
		fmt.Printf("mrblast: wrote comm matrix to %s (render with traceview -comm %s)\n", *commPath, *commPath)
	}
	fail(err)
	fmt.Printf("mrblast: %d queries in %d blocks x %d partitions = %d work units on %d ranks\n",
		sum.Queries, sum.Blocks, sum.Partitions, sum.WorkItems, *ranks)
	fmt.Printf("mrblast: %d hits in %v; useful CPU utilization %.2f; outputs under %s\n",
		sum.TotalHits, time.Since(start).Round(time.Millisecond), sum.Utilization, *out)
}

func writeComm(path string, tracker *obscomm.Tracker) error {
	f, err := obs.CreateOutput(path)
	if err != nil {
		return err
	}
	if err := tracker.Finalize().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeTrace(path string, tracer *obs.Tracer) error {
	f, err := obs.CreateOutput(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrblast:", err)
		os.Exit(1)
	}
}
