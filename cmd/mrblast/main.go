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
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
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
	obsDir := flag.String("obs", "", "turn on every instrument and write the run's trace.json.gz, comm.json.gz, metrics.prom and per-phase pprof files into this directory (flight.json.gz too if the run deadlocks or panics)")
	status := flag.String("status", "", "serve live per-rank status and /metrics over HTTP on this address (e.g. :8080); watch with curl addr/status.txt")
	flag.Parse()
	if *query == "" || *db == "" {
		fail(fmt.Errorf("-query and -db are required"))
	}
	if *ranks < 1 {
		fail(fmt.Errorf("need at least 1 rank, got %d", *ranks))
	}

	sess, err := live.Open(*obsDir, *status)
	fail(err)
	if addr := sess.Addr(); addr != "" {
		fmt.Printf("mrblast: live status at http://%s/status (text: /status.txt, metrics: /metrics)\n", addr)
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
		Trace:              sess.Tracer,
		Metrics:            sess.Metrics,
		Board:              sess.Board,
		Comm:               sess.Comm,
		Flight:             sess.Flight,
		FlightPath:         sess.FlightPath,
		Profile:            sess.Profile,
	})
	cerr := sess.Close()
	if *obsDir != "" && cerr == nil {
		fmt.Printf("mrblast: wrote trace, comm matrix, metrics and profiles under %s\n", *obsDir)
	}
	fail(errors.Join(err, cerr))
	fmt.Printf("mrblast: %d queries in %d blocks x %d partitions = %d work units on %d ranks\n",
		sum.Queries, sum.Blocks, sum.Partitions, sum.WorkItems, *ranks)
	fmt.Printf("mrblast: %d hits in %v; useful CPU utilization %.2f; outputs under %s\n",
		sum.TotalHits, time.Since(start).Round(time.Millisecond), sum.Utilization, *out)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrblast:", err)
		os.Exit(1)
	}
}
