// Package core is the top-level API of the reproduction: it launches the
// paper's two parallel applications — MapReduce-MPI BLAST and the
// MapReduce-MPI batch SOM — on the in-process MPI runtime, wiring together
// query splitting, database access, the MapReduce drivers, and result
// collection. Command-line tools (cmd/mrblast, cmd/mrsom) and the examples
// are thin wrappers over this package.
package core

import (
	"fmt"
	"runtime"

	"repro/internal/bio"
	"repro/internal/blast"
	"repro/internal/blastdb"
	"repro/internal/mpi"
	"repro/internal/mrblast"
	"repro/internal/mrmpi"
	"repro/internal/mrsom"
	"repro/internal/obs"
	"repro/internal/obs/comm"
	"repro/internal/som"
)

// BlastJob describes a complete parallel BLAST run.
type BlastJob struct {
	// QueryPath is a FASTA file of query sequences.
	QueryPath string
	// ManifestPath is the JSON manifest of a formatted database
	// (cmd/formatdb output).
	ManifestPath string
	// BlockSize is the number of queries per work-unit block (the paper's
	// tuning knob; 1000 in its main runs).
	BlockSize int
	// Protein selects blastp; default is blastn.
	Protein bool
	// TopK caps reported hits per query (0 = all passing the cutoff).
	TopK int
	// EValueCutoff overrides the engine default (10) when positive.
	EValueCutoff float64
	// Filter enables low-complexity query masking (DUST/SEG).
	Filter bool
	// OutDir receives one hits file per rank.
	OutDir string
	// ExcludeSelfHits drops fragment-vs-parent hits (the paper's RefSeq
	// self-hit exclusion).
	ExcludeSelfHits bool
	// BlocksPerIteration bounds the MapReduce working set (0 = single
	// iteration).
	BlocksPerIteration int
	// CacheCapacity is DB volumes cached per rank (default 1, as in the
	// paper).
	CacheCapacity int
	// LocalityAware enables the paper's proposed location-aware work
	// scheduler (see mrblast.Config.LocalityAware).
	LocalityAware bool
	// MapWorkers, when > 1, runs each rank's map tasks on that many
	// goroutines (mrblast.Config.MapWorkers). Output is byte-identical to a
	// serial run.
	MapWorkers int
	// DynamicBlocks uses the paper's future-work block plan: BlockSize
	// blocks through the bulk of the query set, progressively halving
	// toward the end for uniform core filling (bio.FastaIndex.DynamicBlocks).
	DynamicBlocks bool
	// Strand restricts nucleotide searches: 0 both strands, +1 plus only,
	// -1 minus only.
	Strand int8
	// UngappedOnly skips the gapped extension stage (blastn -ungapped).
	UngappedOnly bool
	// OutFormat selects the hits encoding: "tsv" (default) or "jsonl".
	OutFormat string
	// Trace, when non-nil, records per-rank span events across all layers
	// of the run (mpi, mrmpi, mrblast); export with WriteChromeTrace.
	Trace *obs.Tracer
	// Metrics, when non-nil, collects run-wide counters from all layers.
	Metrics *obs.Registry
	// Board, when non-nil, is the live per-rank status board sampled by the
	// status server and the deadlock watchdog.
	Board *obs.Board
	// Comm, when non-nil, accounts every p2p message and collective leg into
	// a per-phase communication matrix (comm.Tracker.Matrix after the run).
	Comm *comm.Tracker
	// Flight, when non-nil, keeps a bounded ring of recent runtime events per
	// rank, dumped to FlightPath on deadlock or panic.
	Flight *obs.FlightRecorder
	// FlightPath overrides the flight-dump file (default flight-dump.json).
	FlightPath string
	// Profile, when non-nil, rotates CPU profiles at phase boundaries and
	// snapshots the heap when stopped (obs.StartPhaseProfiler / Stop).
	Profile *obs.PhaseProfiler
}

// BlastSummary aggregates a parallel BLAST run.
type BlastSummary struct {
	// TotalHits is the global reported hit count.
	TotalHits int64
	// Queries and Blocks describe the input split.
	Queries, Blocks int
	// Partitions is the database partition count.
	Partitions int
	// OutFiles lists the per-rank output files.
	OutFiles []string
	// WorkItems is the global number of (block, partition) units executed.
	WorkItems int
	// Utilization is the run's useful CPU utilization: time inside BLAST
	// engine calls over ranks × wall clock (the paper's Fig. 5 metric).
	Utilization float64
}

// RunBlast executes the job on nranks in-process MPI ranks and returns the
// aggregate summary.
func RunBlast(nranks int, job BlastJob) (*BlastSummary, error) {
	if job.BlockSize <= 0 {
		job.BlockSize = 1000
	}
	queries, err := bio.ReadFastaFile(job.QueryPath)
	if err != nil {
		return nil, fmt.Errorf("core: reading queries: %w", err)
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("core: no queries in %s", job.QueryPath)
	}
	manifest, err := blastdb.OpenManifest(job.ManifestPath)
	if err != nil {
		return nil, fmt.Errorf("core: opening database: %w", err)
	}
	params := blast.DefaultNucleotideParams()
	if job.Protein {
		params = blast.DefaultProteinParams()
	}
	if job.EValueCutoff > 0 {
		params.EValueCutoff = job.EValueCutoff
	}
	params.Filter = job.Filter
	params.Strand = job.Strand
	params.UngappedOnly = job.UngappedOnly

	var blocks [][]*bio.Sequence
	if job.DynamicBlocks {
		ix, err := bio.IndexFasta(job.QueryPath)
		if err != nil {
			return nil, fmt.Errorf("core: indexing queries: %w", err)
		}
		for _, r := range ix.DynamicBlocks(job.BlockSize, 0) {
			blocks = append(blocks, queries[r[0]:r[1]])
		}
	} else {
		blocks = bio.SplitFasta(queries, job.BlockSize)
	}
	summary := &BlastSummary{
		Queries:    len(queries),
		Blocks:     len(blocks),
		Partitions: manifest.NumPartitions(),
		OutFiles:   make([]string, nranks),
	}
	workItems := make([]int, nranks)
	hits := make([]int64, nranks)
	rankResults := make([]*mrblast.Result, nranks)
	opts := mpi.RunOptions{
		Trace: job.Trace, Metrics: job.Metrics, Board: job.Board,
		Comm: job.Comm, Flight: job.Flight, FlightPath: job.FlightPath,
		Profile: job.Profile,
	}
	err = mpi.RunWith(nranks, opts, func(c *mpi.Comm) error {
		res, err := mrblast.Run(c, mrblast.Config{
			Params:             params,
			QueryBlocks:        blocks,
			Manifest:           manifest,
			TopK:               job.TopK,
			MapStyle:           mrmpi.MapStyleMaster,
			CacheCapacity:      job.CacheCapacity,
			OutDir:             job.OutDir,
			ExcludeSelfHits:    job.ExcludeSelfHits,
			BlocksPerIteration: job.BlocksPerIteration,
			LocalityAware:      job.LocalityAware,
			MapWorkers:         job.MapWorkers,
			OutFormat:          job.OutFormat,
		})
		if err != nil {
			return err
		}
		summary.OutFiles[c.Rank()] = res.OutFile
		workItems[c.Rank()] = res.WorkItems
		hits[c.Rank()] = res.TotalHits
		rankResults[c.Rank()] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	summary.TotalHits = hits[0]
	for _, w := range workItems {
		summary.WorkItems += w
	}
	summary.Utilization = mrblast.Utilization(rankResults)
	if job.OutDir == "" {
		summary.OutFiles = nil
	}
	return summary, nil
}

// SOMJob describes a complete parallel batch SOM run.
type SOMJob struct {
	// DataPath is a som vector file (cmd/genseq -vectors output).
	DataPath string
	// Width and Height shape the map (paper: 50×50).
	Width, Height int
	// Epochs is the training length.
	Epochs int
	// BlockSize is vectors per work unit (paper: 40).
	BlockSize int
	// Seed initializes the codebook.
	Seed int64
	// Hex selects the hexagonal lattice (default rectangular, the paper's
	// topology).
	Hex bool
	// Bubble selects the cut-off neighborhood kernel (default Gaussian,
	// the paper's Eq. 4).
	Bubble bool
	// MapWorkers, when > 1, parallelizes the accumulation kernel across
	// that many goroutines per rank (mrsom.Config.MapWorkers). Codebooks
	// are bit-identical to a serial run.
	MapWorkers int
	// Checkpoint configures optional checkpoint/resume.
	Checkpoint SOMCheckpoint
	// Trace, when non-nil, records per-rank span events across all layers
	// of the run (mpi, mrmpi, mrsom); export with WriteChromeTrace.
	Trace *obs.Tracer
	// Metrics, when non-nil, collects run-wide counters from all layers.
	Metrics *obs.Registry
	// Board, when non-nil, is the live per-rank status board sampled by the
	// status server and the deadlock watchdog.
	Board *obs.Board
	// Comm, when non-nil, accounts every p2p message and collective leg into
	// a per-phase communication matrix (comm.Tracker.Matrix after the run).
	Comm *comm.Tracker
	// Flight, when non-nil, keeps a bounded ring of recent runtime events per
	// rank, dumped to FlightPath on deadlock or panic.
	Flight *obs.FlightRecorder
	// FlightPath overrides the flight-dump file (default flight-dump.json).
	FlightPath string
	// Profile, when non-nil, rotates CPU profiles at phase boundaries and
	// snapshots the heap when stopped (obs.StartPhaseProfiler / Stop).
	Profile *obs.PhaseProfiler
}

// SOMCheckpoint configures checkpointing for RunSOM: when Path is set, the
// master writes a codebook checkpoint every Every epochs and training
// resumes from an existing checkpoint at Path.
type SOMCheckpoint struct {
	Path  string
	Every int
}

// SOMSummary reports a parallel SOM run.
type SOMSummary struct {
	// Codebook is the trained map.
	Codebook *som.Codebook
	// QuantErr and TopoErr are map quality metrics on the training data.
	QuantErr, TopoErr float64
	// Vectors and Dim describe the input.
	Vectors, Dim int
}

// RunSOM executes the job on nranks in-process MPI ranks.
func RunSOM(nranks int, job SOMJob) (*SOMSummary, error) {
	if job.Width <= 0 || job.Height <= 0 {
		return nil, fmt.Errorf("core: map dimensions must be positive")
	}
	if job.Epochs <= 0 {
		return nil, fmt.Errorf("core: epochs must be positive")
	}
	topo := som.Rect
	if job.Hex {
		topo = som.Hex
	}
	grid, err := som.NewGridTopo(job.Width, job.Height, topo)
	if err != nil {
		return nil, err
	}
	vf, err := som.OpenVectorFile(job.DataPath)
	if err != nil {
		return nil, fmt.Errorf("core: opening vectors: %w", err)
	}
	n, dim := vf.N, vf.Dim
	vf.Close()

	var cb *som.Codebook
	opts := mpi.RunOptions{
		Trace: job.Trace, Metrics: job.Metrics, Board: job.Board,
		Comm: job.Comm, Flight: job.Flight, FlightPath: job.FlightPath,
		Profile: job.Profile,
	}
	err = mpi.RunWith(nranks, opts, func(c *mpi.Comm) error {
		res, err := mrsom.Train(c, job.DataPath, mrsom.Config{
			Grid:            grid,
			Epochs:          job.Epochs,
			BlockSize:       job.BlockSize,
			MapStyle:        mrmpi.MapStyleMaster,
			MapWorkers:      job.MapWorkers,
			Seed:            job.Seed,
			Kernel:          kernelOf(job),
			CheckpointPath:  job.Checkpoint.Path,
			CheckpointEvery: job.Checkpoint.Every,
			Resume:          job.Checkpoint.Path != "",
		})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			cb = res.Codebook
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	summary := &SOMSummary{Codebook: cb, Vectors: n, Dim: dim}
	// Quality metrics on the training data (streamed back in).
	vf, err = som.OpenVectorFile(job.DataPath)
	if err != nil {
		return nil, err
	}
	defer vf.Close()
	data, err := vf.ReadBlock(0, n)
	if err != nil {
		return nil, err
	}
	summary.QuantErr = som.QuantizationError(cb, data, n)
	summary.TopoErr = som.TopographicError(cb, data, n)
	return summary, nil
}

// AutoMapWorkers resolves a -map-workers flag: n > 0 is taken as given,
// n == 0 picks the largest pool that does not oversubscribe the machine —
// GOMAXPROCS divided by the rank count, floored at 1 (serial). With ranks ≥
// cores the ranks themselves saturate the CPUs and pooling only adds
// scheduling overhead.
func AutoMapWorkers(n, nranks int) int {
	if n > 0 {
		return n
	}
	if nranks < 1 {
		nranks = 1
	}
	return max(1, runtime.GOMAXPROCS(0)/nranks)
}

// kernelOf maps the job's kernel flag to the som constant.
func kernelOf(job SOMJob) som.Kernel {
	if job.Bubble {
		return som.Bubble
	}
	return som.Gaussian
}
