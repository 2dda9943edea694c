package main

// adapter.go is the only file of the benchmark that imports repro/internal
// packages (TestInternalImportsConfinedToAdapter enforces it): every type,
// constant and function of the program that the benchmark depends on is
// listed here, so a change to one of these APIs shows up in one place.

import (
	"repro/internal/bio"
	"repro/internal/blast"
	"repro/internal/blastdb"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/mrmpi"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/som"
)

type (
	sequence     = bio.Sequence
	shredParams  = bio.ShredParams
	synthParams  = bio.SynthParams
	genomeParams = bio.GenomeSetParams

	blastParams   = blast.Params
	blastEngine   = blast.Engine
	blastHSP      = blast.HSP
	formatOptions = blastdb.FormatOptions

	blastJob = core.BlastJob
	somJob   = core.SOMJob

	mpiComm    = mpi.Comm
	mpiOptions = mpi.RunOptions

	mapReduce = mrmpi.MapReduce
	mrOptions = mrmpi.Options
	keyValue  = mrmpi.KeyValue

	obsTracer   = obs.Tracer
	obsRegistry = obs.Registry
	obsEvent    = obs.Event
	obsSpan     = obs.SpanInstance

	somGrid     = som.Grid
	somCodebook = som.Codebook
	somParams   = som.TrainParams
)

const (
	alphaDNA     = bio.DNA
	alphaProtein = bio.Protein

	mapStyleChunk  = mrmpi.MapStyleChunk
	mapStyleMaster = mrmpi.MapStyleMaster

	kernelGaussian = som.Gaussian
)

var (
	newGenerator     = bio.NewGenerator
	shredAll         = bio.ShredAll
	splitFasta       = bio.SplitFasta
	readFastaFile    = bio.ReadFastaFile
	writeFastaFile   = bio.WriteFastaFile
	clusteredVectors = bio.ClusteredVectors

	formatDB     = blastdb.Format
	openManifest = blastdb.OpenManifest
	loadVolume   = blastdb.LoadVolume

	nucleotideParams = blast.DefaultNucleotideParams
	proteinParams    = blast.DefaultProteinParams
	newEngine        = blast.NewEngine

	runBlast = core.RunBlast
	runSOM   = core.RunSOM

	mpiRunWith        = mpi.RunWith
	bcastFloat64s     = mpi.BcastFloat64s
	reduceSumFloat64s = mpi.ReduceSumFloat64s

	newMapReduce = mrmpi.NewWith

	newTracer   = obs.NewTracer
	newRegistry = obs.NewRegistry
	pairSpans   = obs.PairSpans
	analyzeRun  = analyze.Analyze

	newGrid           = som.NewGrid
	newCodebook       = som.NewCodebook
	writeVectorFile   = som.WriteVectorFile
	openVectorFile    = som.OpenVectorFile
	writeCodebook     = som.WriteCodebook
	readCodebook      = som.ReadCodebook
	accumulateKernel  = som.BatchAccumulateKernel
	batchApply        = som.BatchApply
	trainBatch        = som.TrainBatch
	quantizationError = som.QuantizationError
)

// Names the program gives its own registry counters and trace spans. The
// traced pass reads them through the public Metrics and Trace options; a
// change that renames one must rename it here.
var programCounters = map[string]string{
	"blastdb.bytes_loaded": "blastdb.cache.bytes.loaded",
	"mrmpi.kv_emitted":     "mrmpi.kv.emitted",
	"mrmpi.map_tasks":      "mrmpi.map.tasks",
	"mrmpi.exchange_bytes": "mrmpi.exchange.sent.bytes",
	"mrmpi.spill_bytes":    "mrmpi.spill.bytes",
	"mrmpi.spill_pages":    "mrmpi.spill.pages",
	"mpi.sends":            "mpi.sends",
	"mpi.send_bytes":       "mpi.send.bytes",
	"mpi.collectives":      "mpi.collectives",
	"mrsom.blocks":         "mrsom.blocks",
}

const (
	counterCacheHits   = "blastdb.cache.hits"
	counterCacheMisses = "blastdb.cache.misses"

	// spanMapPhase is the mrmpi phase whose per-rank busy time gives the map
	// imbalance; spanEpoch* is mrsom's span around one training epoch.
	spanMapPhase  = "map"
	spanEpochCat  = "mrsom"
	spanEpochName = "epoch"
)
