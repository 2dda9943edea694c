// Command mrsom trains the paper's parallel batch SOM: MapReduce-MPI map
// over blocks of input vectors plus direct MPI broadcast/reduce of the
// codebook each epoch.
//
// Usage:
//
//	mrsom -data vectors.bin -ranks 8 -w 50 -h 50 -epochs 20 \
//	      -umatrix umatrix.pgm -codebook codebook.ppm
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
	"repro/internal/som"
)

func main() {
	data := flag.String("data", "", "input vector file (genseq -mode vectors) (required)")
	ranks := flag.Int("ranks", runtime.NumCPU(), "MPI ranks (rank 0 is the master)")
	w := flag.Int("w", 50, "map width")
	h := flag.Int("h", 50, "map height")
	epochs := flag.Int("epochs", 20, "training epochs")
	blockSize := flag.Int("block", 40, "vectors per work unit (the paper uses 40)")
	mapWorkers := flag.Int("map-workers", 1, "goroutines per rank for the accumulation kernel (0 = auto: cores/ranks; bit-identical for a fixed task assignment)")
	seed := flag.Int64("seed", 1, "codebook init seed")
	umatrix := flag.String("umatrix", "", "write the U-matrix as a PGM image")
	codebook := flag.String("codebook", "", "write the codebook's first 3 dims as a PPM image")
	hex := flag.Bool("hex", false, "hexagonal lattice (default rectangular)")
	bubble := flag.Bool("bubble", false, "bubble neighborhood kernel (default Gaussian)")
	checkpoint := flag.String("checkpoint", "", "checkpoint file: written every -checkpoint-every epochs; resumed from when it exists")
	checkpointEvery := flag.Int("checkpoint-every", 5, "epochs between checkpoints")
	obsDir := flag.String("obs", "", "turn on every instrument and write the run's trace.json.gz, comm.json.gz, metrics.prom and per-phase pprof files into this directory (flight.json.gz too if the run deadlocks or panics)")
	status := flag.String("status", "", "serve live per-rank status and /metrics over HTTP on this address (e.g. :8080); watch with curl addr/status.txt")
	flag.Parse()
	if *data == "" {
		fail(fmt.Errorf("-data is required"))
	}
	if *ranks < 1 {
		fail(fmt.Errorf("need at least 1 rank, got %d", *ranks))
	}

	sess, err := live.Open(*obsDir, *status)
	fail(err)
	if addr := sess.Addr(); addr != "" {
		fmt.Printf("mrsom: live status at http://%s/status (text: /status.txt, metrics: /metrics)\n", addr)
	}

	start := time.Now()
	sum, err := core.RunSOM(*ranks, core.SOMJob{
		DataPath:   *data,
		Width:      *w,
		Height:     *h,
		Epochs:     *epochs,
		BlockSize:  *blockSize,
		Seed:       *seed,
		Hex:        *hex,
		Bubble:     *bubble,
		MapWorkers: core.AutoMapWorkers(*mapWorkers, *ranks),
		Checkpoint: core.SOMCheckpoint{
			Path:  *checkpoint,
			Every: *checkpointEvery,
		},
		Trace:      sess.Tracer,
		Metrics:    sess.Metrics,
		Board:      sess.Board,
		Comm:       sess.Comm,
		Flight:     sess.Flight,
		FlightPath: sess.FlightPath,
		Profile:    sess.Profile,
	})
	cerr := sess.Close()
	if *obsDir != "" && cerr == nil {
		fmt.Printf("mrsom: wrote trace, comm matrix, metrics and profiles under %s\n", *obsDir)
	}
	fail(errors.Join(err, cerr))
	fmt.Printf("mrsom: trained %dx%d map on %d x %d-d vectors, %d epochs, %d ranks in %v\n",
		*w, *h, sum.Vectors, sum.Dim, *epochs, *ranks, time.Since(start).Round(time.Millisecond))
	fmt.Printf("mrsom: quantization error %.5f, topographic error %.5f\n",
		sum.QuantErr, sum.TopoErr)
	if *umatrix != "" {
		fail(som.WritePGM(*umatrix, som.UMatrix(sum.Codebook)))
		fmt.Printf("mrsom: wrote U-matrix to %s\n", *umatrix)
	}
	if *codebook != "" {
		fail(som.WriteCodebookPPM(*codebook, sum.Codebook))
		fmt.Printf("mrsom: wrote codebook image to %s\n", *codebook)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrsom:", err)
		os.Exit(1)
	}
}
