package main

import "encoding/json"

// runSeconds is how long one invocation measures each workload by default;
// BENCHMARK.json declares the same number as run_seconds.
const runSeconds = 10

// computeRanks is the number of ranks that do work in every job, and the
// GOMAXPROCS every child is pinned to, so a larger machine gives comparable
// numbers. Master-style jobs run one more rank: rank 0 only dispatches and
// sits blocked in Recv, so it needs no core of its own.
const computeRanks = 2

// metric declares one reported number. bound is set on end-to-end metrics
// only: the share of the baseline median by which the metric may worsen
// before -compare calls it regressed. moves is set on per-layer metrics only:
// the end-to-end metric and workload a change to this number should move
// (every other pairing predicts no change).
type metric struct {
	name   string
	unit   string
	better string
	bound  float64
	moves  string
}

// endToEnd lists what a user of mrblast / mrsom sees: how long a job takes,
// what it costs, and how long the genseq / formatdb step before it takes.
// Correctness (the issue's fail_ratio) is reported as failed ÷ attempted
// beside the metrics, because a metric that is 0 on every good run has no
// median to bound. Peak memory is the per-layer proc.peak_rss_mb: on
// blastn-reads the garbage collector's timing moves a job's peak RSS between
// 100 and 167 MB on one input, too wide for any bound up to 0.25.
var endToEnd = []metric{
	{name: "wall_s", unit: "s", better: "lower", bound: 0.10},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.10},
	{name: "work_per_s", unit: "1/s", better: "higher", bound: 0.10},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

const (
	hitPath   = "wall_s, cpu_s, proc.peak_rss_mb @ blastn-reads"
	scanPath  = "cpu_s @ blastn-decoy"
	buildPath = "wall_s @ blastp-remote"
	allBlast  = "wall_s @ blastn-reads, blastn-decoy, blastp-remote"
	spillPath = "wall_s, cpu_s, proc.peak_rss_mb @ shuffle-spill"
	dispatch  = "wall_s @ som-batch, blastn-decoy"
	somPath   = "wall_s, cpu_s @ som-batch"
	guard     = "none (guard)"
)

// perLayer lists the numbers of single layers, named after the package that
// owns the work. They come from the traced pass only.
var perLayer = []metric{
	{name: "bio.read_fasta_s", unit: "s", better: "lower", moves: guard},
	{name: "bio.synth_s", unit: "s", better: "lower", moves: "setup_s @ all"},

	{name: "blastdb.format_s", unit: "s", better: "lower", moves: "setup_s @ blast workloads"},
	{name: "blastdb.load_volume_s", unit: "s", better: "lower", moves: "wall_s @ blastn-decoy"},
	{name: "blastdb.bytes_loaded", unit: "B", better: "lower", moves: "wall_s @ blastn-decoy"},
	{name: "blastdb.cache_hit_ratio", unit: "ratio", better: "higher", moves: "wall_s @ blastn-decoy"},

	{name: "blast.engine_build_s", unit: "s", better: "lower", moves: buildPath},
	{name: "blast.search_s", unit: "s", better: "lower", moves: hitPath},
	{name: "blast.ns_per_residue", unit: "ns", better: "lower", moves: scanPath},
	{name: "blast.alloc_mb", unit: "MB", better: "lower", moves: hitPath},
	{name: "blast.residues_scanned", unit: "count", better: "lower", moves: guard},
	{name: "blast.word_hits", unit: "count", better: "lower", moves: scanPath},
	{name: "blast.ungapped_exts", unit: "count", better: "lower", moves: scanPath},
	{name: "blast.gapped_exts", unit: "count", better: "lower", moves: scanPath},
	{name: "blast.hsps_reported", unit: "count", better: "higher", moves: guard},
	{name: "blast.hsps_per_gapped_ext", unit: "ratio", better: "higher", moves: scanPath},

	{name: "mrblast.unit_p50_ms", unit: "ms", better: "lower", moves: allBlast},
	{name: "mrblast.unit_p95_ms", unit: "ms", better: "lower", moves: allBlast},
	{name: "mrblast.unit_max_ms", unit: "ms", better: "lower", moves: allBlast},
	{name: "mrblast.serial_s", unit: "s", better: "lower", moves: allBlast},
	{name: "mrblast.parallel_efficiency", unit: "ratio", better: "higher", moves: allBlast},
	{name: "mrblast.utilization", unit: "ratio", better: "higher", moves: allBlast},
	{name: "mrblast.work_items", unit: "count", better: "lower", moves: guard},
	{name: "mrblast.hits", unit: "count", better: "higher", moves: guard},

	{name: "mrmpi.map_s", unit: "s", better: "lower", moves: spillPath},
	{name: "mrmpi.aggregate_s", unit: "s", better: "lower", moves: spillPath},
	{name: "mrmpi.convert_s", unit: "s", better: "lower", moves: spillPath},
	{name: "mrmpi.sort_s", unit: "s", better: "lower", moves: spillPath},
	{name: "mrmpi.reduce_s", unit: "s", better: "lower", moves: spillPath},
	{name: "mrmpi.kv_emitted", unit: "count", better: "lower", moves: guard},
	{name: "mrmpi.map_tasks", unit: "count", better: "lower", moves: guard},
	{name: "mrmpi.exchange_bytes", unit: "B", better: "lower", moves: spillPath},
	{name: "mrmpi.spill_bytes", unit: "B", better: "lower", moves: spillPath},
	{name: "mrmpi.spill_pages", unit: "count", better: "lower", moves: spillPath},
	{name: "mrmpi.spill_amplification", unit: "ratio", better: "lower", moves: spillPath},
	{name: "mrmpi.map_imbalance", unit: "ratio", better: "lower", moves: allBlast},
	{name: "mrmpi.dispatch_p50_us", unit: "us", better: "lower", moves: dispatch},
	{name: "mrmpi.dispatch_p95_us", unit: "us", better: "lower", moves: dispatch},

	{name: "mpi.pingpong_us", unit: "us", better: "lower", moves: "wall_s @ som-batch"},
	{name: "mpi.reduce_bcast_ms", unit: "ms", better: "lower", moves: "wall_s @ som-batch"},
	{name: "mpi.sends", unit: "count", better: "lower", moves: "wall_s @ som-batch"},
	{name: "mpi.send_bytes", unit: "B", better: "lower", moves: "wall_s @ shuffle-spill"},
	{name: "mpi.collectives", unit: "count", better: "lower", moves: "wall_s @ som-batch"},
	{name: "mpi.comm_share", unit: "ratio", better: "lower", moves: "wall_s @ som-batch, shuffle-spill"},

	{name: "som.accumulate_wide_s", unit: "s", better: "lower", moves: somPath},
	{name: "som.accumulate_narrow_s", unit: "s", better: "lower", moves: somPath},
	{name: "som.ns_per_vector_neuron", unit: "ns", better: "lower", moves: somPath},
	{name: "som.apply_s", unit: "s", better: "lower", moves: somPath},
	{name: "som.read_block_s", unit: "s", better: "lower", moves: somPath},
	{name: "som.serial_train_s", unit: "s", better: "lower", moves: somPath},
	{name: "som.quant_error", unit: "dist", better: "lower", moves: guard},

	{name: "mrsom.epoch_p50_ms", unit: "ms", better: "lower", moves: "wall_s @ som-batch"},
	{name: "mrsom.epoch_max_ms", unit: "ms", better: "lower", moves: "wall_s @ som-batch"},
	{name: "mrsom.epochs_s", unit: "s", better: "lower", moves: "wall_s @ som-batch"},
	{name: "mrsom.parallel_efficiency", unit: "ratio", better: "higher", moves: "wall_s @ som-batch"},
	{name: "mrsom.blocks", unit: "count", better: "lower", moves: guard},

	{name: "proc.peak_rss_mb", unit: "MB", better: "lower", moves: "itself, on shuffle-spill and blastn-reads: the working-set claim"},

	{name: "obs.trace_overhead_ratio", unit: "ratio", better: "lower", moves: "none (tracing is off in timed runs)"},
	{name: "obs.trace_events", unit: "count", better: "lower", moves: "none (tracing is off in timed runs)"},
}

// specJSON renders BENCHMARK.json from the tables above and the workload
// list, so the declared names cannot drift from the emitted ones
// (TestSpecMatchesBenchmarkJSON compares it with the committed file).
func specJSON() ([]byte, error) {
	type workloadDecl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type boundDecl struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerDecl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadDecl `json:"workloads"`
		EndToEnd   []boundDecl    `json:"end_to_end"`
		PerLayer   []layerDecl    `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads(scaleFull) {
		spec.Workloads = append(spec.Workloads, workloadDecl{w.name, w.why})
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, boundDecl{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layerDecl{m.name, m.unit, m.better})
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
