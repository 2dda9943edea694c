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
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	obscomm "repro/internal/obs/comm"
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
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON of the run (.gz compresses; view in Perfetto or cmd/traceview)")
	metrics := flag.Bool("metrics", false, "print the run's metrics registry on completion")
	status := flag.String("status", "", "serve live per-rank status over HTTP on this address (e.g. :8080); watch with curl addr/status.txt")
	statusLinger := flag.Duration("status-linger", 0, "keep the -status server up this long after the run so scrapers can collect final /metrics")
	commPath := flag.String("comm", "", "account per-rank communication; write the merged comm matrix JSON here (.gz compresses; render with traceview -comm)")
	flightPath := flag.String("flight", "", "arm the flight recorder; a post-mortem dump is written here (.gz compresses) if the run deadlocks, panics, or gets SIGQUIT")
	profileDir := flag.String("profile", "", "capture per-phase CPU profiles and an end-of-run heap snapshot into this directory")
	flag.Parse()
	if *data == "" {
		fail(fmt.Errorf("-data is required"))
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
		fmt.Printf("mrsom: live status at http://%s/status (text: /status.txt, metrics: /metrics)\n", srv.Addr())
		if *statusLinger > 0 {
			defer time.Sleep(*statusLinger)
		}
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
		Trace:      tracer,
		Metrics:    reg,
		Board:      board,
		Comm:       commT,
		Flight:     flight,
		FlightPath: *flightPath,
		Profile:    prof,
	})
	if prof != nil {
		files, perr := prof.Stop()
		fmt.Printf("mrsom: wrote %d profile file(s) under %s (go tool pprof <file>)\n", len(files), *profileDir)
		if perr != nil {
			fmt.Fprintln(os.Stderr, "mrsom: profiling:", perr)
		}
	}
	if tracer != nil {
		fail(writeTrace(*tracePath, tracer))
		fmt.Printf("mrsom: wrote trace to %s\n", *tracePath)
	}
	if reg != nil {
		fail(reg.Snapshot().WriteTable(os.Stdout))
	}
	if commT != nil {
		fail(writeComm(*commPath, commT))
		fmt.Printf("mrsom: wrote comm matrix to %s (render with traceview -comm %s)\n", *commPath, *commPath)
	}
	fail(err)
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
		fmt.Fprintln(os.Stderr, "mrsom:", err)
		os.Exit(1)
	}
}
