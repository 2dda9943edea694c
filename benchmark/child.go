package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// A child process performs exactly one job (or one layer replay) on inputs
// the parent generated, and prints one JSON line. Running each job in a
// process of its own gives it a clean heap and lets the parent read its CPU
// time and peak memory from the rusage of the exited process.
const (
	modeJob    = "job"
	modeReplay = "replay"
)

// childResult is the line a child prints.
type childResult struct {
	// WallS is the in-child timer around the whole job, from inputs on disk
	// to outputs flushed.
	WallS float64 `json:"wall_s"`
	// Layer holds the per-layer metrics this child measured, by name.
	Layer map[string]float64 `json:"layer,omitempty"`
	// Spans are the benchmark's own spans around calls into the layers.
	Spans []span `json:"spans,omitempty"`
}

// childArgs is what the parent passes to a child.
type childArgs struct {
	mode     string
	workload string
	scale    string
	seed     int64
	// dir holds the generated inputs, out receives the outputs.
	dir, out string
	// traced switches the program's own tracer and registry on for the job.
	traced bool
	// probe adds the mpi latency probes to a replay.
	probe bool
}

func (a childArgs) argv() []string {
	return []string{"-child", a.mode,
		"-workload", a.workload, "-scale", a.scale, "-seed", fmt.Sprint(a.seed),
		"-dir", a.dir, "-out", a.out,
		fmt.Sprintf("-traced=%t", a.traced), fmt.Sprintf("-probe=%t", a.probe)}
}

// childMain runs one child invocation: args are os.Args after "-child".
func childMain(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -child needs a mode")
		return 2
	}
	a := childArgs{mode: args[0]}
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	fs.StringVar(&a.workload, "workload", "", "")
	fs.StringVar(&a.scale, "scale", scaleFull, "")
	fs.Int64Var(&a.seed, "seed", 1, "")
	fs.StringVar(&a.dir, "dir", "", "")
	fs.StringVar(&a.out, "out", "", "")
	fs.BoolVar(&a.traced, "traced", false, "")
	fs.BoolVar(&a.probe, "probe", false, "")
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	res, err := runChild(a)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark child %s %s: %v\n", a.mode, a.workload, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark child: %v\n", err)
		return 1
	}
	return 0
}

func runChild(a childArgs) (*childResult, error) {
	ws, err := selectWorkloads(a.workload, a.scale)
	if err != nil {
		return nil, err
	}
	if len(ws) != 1 {
		return nil, fmt.Errorf("a child runs one workload, got %q", a.workload)
	}
	w := ws[0]
	rec := newRecorder(w.name)
	res := &childResult{Layer: map[string]float64{}}
	switch a.mode {
	case modeJob:
		err = runJob(w, a, rec, res)
	case modeReplay:
		err = runReplay(w, a, rec, res)
	default:
		err = fmt.Errorf("unknown child mode %q", a.mode)
	}
	res.Spans = rec.spans
	return res, err
}

// runJob performs the workload's parallel job once, inside one benchmark
// span, and fills res.WallS. With a.traced the program's tracer and registry
// are switched on through the job's public Trace and Metrics options and
// folded into res.Layer.
func runJob(w *workload, a childArgs, rec *recorder, res *childResult) error {
	var tr *obsTracer
	var reg *obsRegistry
	if a.traced {
		tr, reg = newTracer(), newRegistry()
	}
	root := rec.begin(0, "job")
	var err error
	switch w.kind {
	case kindBlast:
		err = blastJobRun(w, a, tr, reg, res)
	case kindSOM:
		err = somJobRun(w, a, tr, reg)
	case kindShuffle:
		err = shuffleJobRun(w, a, tr, reg, rec, root)
	}
	res.WallS = rec.end(root)
	if err != nil || !a.traced {
		return err
	}
	foldProgramTrace(w, tr, reg, res.Layer)
	return nil
}

func blastJobRun(w *workload, a childArgs, tr *obsTracer, reg *obsRegistry, res *childResult) error {
	sum, err := runBlast(w.ranks, blastJob{
		QueryPath:    queriesPath(a.dir),
		ManifestPath: manifestPath(a.dir),
		BlockSize:    w.blast.blockSize,
		Protein:      w.blast.protein,
		EValueCutoff: w.blast.evalue,
		Filter:       w.blast.filter,
		OutDir:       a.out,
		Trace:        tr,
		Metrics:      reg,
	})
	if err != nil {
		return err
	}
	res.Layer["mrblast.utilization"] = sum.Utilization
	res.Layer["mrblast.work_items"] = float64(sum.WorkItems)
	res.Layer["mrblast.hits"] = float64(sum.TotalHits)
	return nil
}

// codebookFile is the trained map a SOM job (or its oracle) leaves in the
// output directory.
const codebookFile = "codebook.somc"

func somJobRun(w *workload, a childArgs, tr *obsTracer, reg *obsRegistry) error {
	c := w.som
	sum, err := runSOM(w.ranks, somJob{
		DataPath:  vectorsPath(a.dir),
		Width:     c.width,
		Height:    c.height,
		Epochs:    c.epochs,
		BlockSize: c.block,
		Seed:      a.seed,
		Trace:     tr,
		Metrics:   reg,
	})
	if err != nil {
		return err
	}
	return writeCodebook(filepath.Join(a.out, codebookFile), sum.Codebook, c.epochs)
}

// countsFile names the (key, count) records one shuffle rank writes.
func countsFile(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("counts.rank%04d.bin", rank))
}

// shuffleJobRun is the benchmark-owned MapReduce that makes mrmpi do all the
// work: every rank reads its share of the task files, the pairs are
// redistributed by key, grouped under a memory budget far below their size,
// sorted, and each group is reduced to its count.
func shuffleJobRun(w *workload, a childArgs, tr *obsTracer, reg *obsRegistry, rec *recorder, parent int) error {
	c := w.shuffle
	spillDir := filepath.Join(os.TempDir(), "spill")
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return err
	}
	return mpiRunWith(w.ranks, mpiOptions{Trace: tr, Metrics: reg}, func(comm *mpiComm) error {
		mr := newMapReduce(comm, mrOptions{MapStyle: mapStyleChunk, MemSize: c.memSize, SpillDir: spillDir})
		defer mr.Close()
		f, err := os.Create(countsFile(a.out, comm.Rank()))
		if err != nil {
			return err
		}
		defer f.Close()
		bw := bufio.NewWriterSize(f, 1<<20)
		err = runPhases(mr, rec, parent, c.tasks,
			func(itask int, kv *keyValue) error {
				data, err := os.ReadFile(taskPath(a.dir, itask))
				if err != nil {
					return err
				}
				for ; len(data) >= shuffleRecLen; data = data[shuffleRecLen:] {
					kv.Add(data[:shuffleKeyLen], data[shuffleKeyLen:shuffleRecLen])
				}
				return nil
			},
			func(key []byte, values [][]byte, _ *keyValue) error {
				var count [8]byte
				binary.BigEndian.PutUint64(count[:], uint64(len(values)))
				bw.Write(key)
				_, err := bw.Write(count[:])
				return err
			})
		if err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		return f.Close()
	})
}

// Names of the spans runPhases records, one per rank and call.
var phaseSpans = []string{"mrmpi.map", "mrmpi.aggregate", "mrmpi.convert", "mrmpi.sort", "mrmpi.reduce"}

// runPhases drives one MapReduce cycle on the calling rank, each of the five
// collective calls under its own span.
func runPhases(mr *mapReduce, rec *recorder, parent, nmap int,
	mapFn func(itask int, kv *keyValue) error,
	reduceFn func(key []byte, values [][]byte, out *keyValue) error) error {
	calls := []func() error{
		func() error { _, err := mr.Map(nmap, mapFn); return err },
		func() error { return mr.Aggregate(nil) },
		mr.Convert,
		func() error { return mr.SortKeys(nil) },
		func() error { _, err := mr.Reduce(reduceFn); return err },
	}
	for i, call := range calls {
		id := rec.begin(parent, phaseSpans[i])
		err := call()
		rec.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// phaseMetrics reports each MapReduce phase as the longest of its per-rank
// spans: the phase ends when its slowest rank does.
func phaseMetrics(spans []span, layer map[string]float64) {
	for _, name := range phaseSpans {
		longest := 0.0
		for _, d := range durations(spans, name) {
			longest = max(longest, d)
		}
		layer[name+"_s"] = longest
	}
}

// foldProgramTrace turns the program's own registry counters and trace into
// per-layer metrics. A counter or span the program does not emit leaves its
// metric at 0; it is never an error.
func foldProgramTrace(w *workload, tr *obsTracer, reg *obsRegistry, layer map[string]float64) {
	counters := map[string]float64{}
	for _, c := range reg.Snapshot().Counters {
		counters[c.Name] = float64(c.Value)
	}
	for metric, counter := range programCounters {
		layer[metric] = counters[counter]
	}
	if lookups := counters[counterCacheHits] + counters[counterCacheMisses]; lookups > 0 {
		layer["blastdb.cache_hit_ratio"] = counters[counterCacheHits] / lookups
	}

	events := tr.Events()
	layer["obs.trace_events"] = float64(len(events))
	rep := analyzeRun(events)
	// Under master style rank 0 only dispatches: leave it out of every
	// per-rank ratio.
	first := w.ranks - computeRanks
	if len(rep.Ranks) == w.ranks && rep.WallClock > 0 {
		var comm time.Duration
		for _, r := range rep.Ranks[first:] {
			comm += r.Comm
		}
		layer["mpi.comm_share"] = float64(comm) / float64(computeRanks*rep.WallClock)
	}
	for _, ph := range rep.Phases {
		if ph.Name != spanMapPhase || len(ph.BusyByRank) != w.ranks {
			continue
		}
		var total, longest time.Duration
		for _, busy := range ph.BusyByRank[first:] {
			total += busy
			longest = max(longest, busy)
		}
		if total > 0 {
			layer["mrmpi.map_imbalance"] = float64(longest) * computeRanks / float64(total)
		}
	}
	if d := rep.Dispatch; d != nil {
		layer["mrmpi.dispatch_p50_us"] = float64(d.P50) / 1e3
		layer["mrmpi.dispatch_p95_us"] = float64(d.P95) / 1e3
	}
	var epochs []float64
	pairSpans(events, func(sp obsSpan) {
		if sp.Rank == 0 && sp.Cat == spanEpochCat && sp.Name == spanEpochName {
			epochs = append(epochs, sp.Dur.Seconds()*1e3)
		}
	})
	if len(epochs) > 0 {
		layer["mrsom.epoch_p50_ms"] = median(epochs)
		layer["mrsom.epoch_max_ms"] = maxOf(epochs)
		layer["mrsom.epochs_s"] = sum(epochs) / 1e3
	}
}
