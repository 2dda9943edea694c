package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync/atomic"
	"time"
)

// The layer replay runs a workload's inputs through the layers' public
// functions on one thread, each call under a benchmark span. It is three
// things at once: the per-layer time budget, the plain single-threaded
// baseline of the same problem, and the serial oracle whose outputs every
// parallel job is checked against.

// Files the replay leaves in its output directory for the oracle check.
const (
	oracleHitsFile   = "oracle.tsv"
	oracleCountsFile = "oracle.bin"
)

func runReplay(w *workload, a childArgs, rec *recorder, res *childResult) error {
	root := rec.begin(0, "replay")
	var err error
	switch w.kind {
	case kindBlast:
		err = blastReplay(w, a, rec, root, res.Layer)
	case kindSOM:
		err = somReplay(w, a, rec, root, res.Layer)
	case kindShuffle:
		err = shuffleReplay(w, a, rec, root)
	}
	res.WallS = rec.end(root)
	if err != nil || !a.probe {
		return err
	}
	return mpiProbe(w, res.Layer)
}

// heapAllocBytes reads the cumulative bytes allocated on the heap without
// stopping the world (runtime.ReadMemStats would, once per subject).
func heapAllocBytes(sample []metrics.Sample) uint64 {
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// kvPair is one (query key, marshalled HSP) pair a replayed unit emitted.
type kvPair struct{ key, value []byte }

// blastReplay searches every (query block, partition) unit in task order the
// way mrblast's map does — engine built once per block, volume loaded once
// per unit — writes the hit lines as the oracle, and re-emits the collected
// pairs through one MapReduce cycle at the job's rank count.
func blastReplay(w *workload, a childArgs, rec *recorder, root int, layer map[string]float64) error {
	id := rec.begin(root, "bio.read_fasta")
	queries, err := readFastaFile(queriesPath(a.dir))
	layer["bio.read_fasta_s"] = rec.end(id)
	if err != nil {
		return err
	}
	manifest, err := openManifest(manifestPath(a.dir))
	if err != nil {
		return err
	}
	params := nucleotideParams()
	if w.blast.protein {
		params = proteinParams()
	}
	params.EValueCutoff = w.blast.evalue
	params.Filter = w.blast.filter
	params.DBLength, params.DBNumSeqs = manifest.TotalResidues, manifest.NumSeqs

	queryIndex := make(map[string]uint64, len(queries))
	for i, q := range queries {
		queryIndex[q.ID] = uint64(i)
	}
	out, err := os.Create(filepath.Join(a.out, oracleHitsFile))
	if err != nil {
		return err
	}
	defer out.Close()
	lines := bufio.NewWriter(out)

	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	var allocated uint64
	var residues, wordHits, ungapped, gapped, reported int64
	var units [][]kvPair
	var hits int64
	var subjBuf []byte
	for _, block := range splitFasta(queries, w.blast.blockSize) {
		var eng *blastEngine
		for pi := 0; pi < manifest.NumPartitions(); pi++ {
			unit := rec.begin(root, "mrblast.unit")
			if eng == nil {
				id := rec.begin(unit, "blast.engine_build")
				eng, err = newEngine(block, params)
				rec.end(id)
				if err != nil {
					return err
				}
				eng.SetDatabaseDims(manifest.TotalResidues, manifest.NumSeqs)
			}
			id := rec.begin(unit, "blastdb.load_volume")
			vol, err := loadVolume(manifest.VolumePath(pi))
			rec.end(id)
			if err != nil {
				return err
			}
			var pairs []kvPair
			for si := 0; si < vol.NumSeqs(); si++ {
				subj, buf := vol.SubjectAppend(si, subjBuf)
				subjBuf = buf
				before := heapAllocBytes(sample)
				id := rec.begin(unit, "blast.search")
				hsps, err := eng.SearchSubject(subj)
				rec.end(id)
				allocated += heapAllocBytes(sample) - before
				if err != nil {
					return err
				}
				for _, h := range hsps {
					fmt.Fprintln(lines, h.String())
					key := binary.BigEndian.AppendUint64(nil, queryIndex[h.QueryID])
					pairs = append(pairs, kvPair{key, h.Marshal()})
				}
				hits += int64(len(hsps))
			}
			units = append(units, pairs)
			rec.end(unit)
		}
		residues += eng.Stats.ResiduesScanned
		wordHits += eng.Stats.WordHits
		ungapped += eng.Stats.UngappedExts
		gapped += eng.Stats.GappedExts
		reported += eng.Stats.HSPsReported
	}
	if err := lines.Flush(); err != nil {
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}

	var collated atomic.Int64
	err = mpiRunWith(w.ranks, mpiOptions{}, func(comm *mpiComm) error {
		mr := newMapReduce(comm, mrOptions{MapStyle: mapStyleMaster})
		defer mr.Close()
		return runPhases(mr, rec, root, len(units),
			func(itask int, kv *keyValue) error {
				for _, p := range units[itask] {
					kv.Add(p.key, p.value)
				}
				return nil
			},
			func(_ []byte, values [][]byte, _ *keyValue) error {
				collated.Add(int64(len(values)))
				return nil
			})
	})
	if err != nil {
		return err
	}
	if collated.Load() != hits {
		return fmt.Errorf("replayed collate returned %d hits, the search emitted %d", collated.Load(), hits)
	}

	phaseMetrics(rec.spans, layer)
	search := sum(durations(rec.spans, "blast.search"))
	layer["blast.search_s"] = search
	layer["blast.engine_build_s"] = sum(durations(rec.spans, "blast.engine_build"))
	layer["blastdb.load_volume_s"] = sum(durations(rec.spans, "blastdb.load_volume"))
	layer["blast.alloc_mb"] = float64(allocated) / (1 << 20)
	layer["blast.residues_scanned"] = float64(residues)
	layer["blast.word_hits"] = float64(wordHits)
	layer["blast.ungapped_exts"] = float64(ungapped)
	layer["blast.gapped_exts"] = float64(gapped)
	layer["blast.hsps_reported"] = float64(reported)
	if residues > 0 {
		layer["blast.ns_per_residue"] = search * 1e9 / float64(residues)
	}
	if gapped > 0 {
		layer["blast.hsps_per_gapped_ext"] = float64(reported) / float64(gapped)
	}
	unitMS := durations(rec.spans, "mrblast.unit")
	for i := range unitMS {
		unitMS[i] *= 1e3
	}
	layer["mrblast.unit_p50_ms"] = median(unitMS)
	layer["mrblast.unit_p95_ms"] = quantile(unitMS, 0.95)
	layer["mrblast.unit_max_ms"] = maxOf(unitMS)
	return nil
}

// somReplay times the SOM layer's public calls over the whole data set and
// trains the serial batch SOM, whose codebook is the oracle.
func somReplay(w *workload, a childArgs, rec *recorder, root int, layer map[string]float64) error {
	c := w.som
	vf, err := openVectorFile(vectorsPath(a.dir))
	if err != nil {
		return err
	}
	defer vf.Close()
	n := vf.N
	var data []float64
	id := rec.begin(root, "som.read_block")
	for lo := 0; lo < n; lo += c.block {
		block, err := vf.ReadBlock(lo, min(lo+c.block, n))
		if err != nil {
			return err
		}
		data = append(data, block...)
	}
	layer["som.read_block_s"] = rec.end(id)

	grid, err := newGrid(c.width, c.height)
	if err != nil {
		return err
	}
	cb, err := newCodebook(grid, vf.Dim)
	if err != nil {
		return err
	}
	cb.InitRandom(a.seed)
	num := make([]float64, grid.Cells()*vf.Dim)
	den := make([]float64, grid.Cells())

	// One epoch's accumulation at the last and the first radius of the
	// schedule brackets what an epoch of the real run costs.
	id = rec.begin(root, "som.accumulate_narrow")
	accumulateKernel(cb, data, n, 1, kernelGaussian, num, den)
	layer["som.accumulate_narrow_s"] = rec.end(id)
	clear(num)
	clear(den)
	id = rec.begin(root, "som.accumulate_wide")
	accumulateKernel(cb, data, n, grid.Diagonal()/2, kernelGaussian, num, den)
	layer["som.accumulate_wide_s"] = rec.end(id)
	id = rec.begin(root, "som.apply")
	batchApply(cb.Clone(), num, den)
	layer["som.apply_s"] = rec.end(id)

	id = rec.begin(root, "som.serial_train")
	err = trainBatch(cb, data, n, somParams{Epochs: c.epochs, Kern: kernelGaussian})
	train := rec.end(id)
	if err != nil {
		return err
	}
	layer["som.serial_train_s"] = train
	layer["som.ns_per_vector_neuron"] = train * 1e9 / float64(n*grid.Cells()*c.epochs)
	layer["som.quant_error"] = quantizationError(cb, data, n)
	return writeCodebook(filepath.Join(a.out, codebookFile), cb, c.epochs)
}

// shuffleReplay counts every key of the task files in one array on one
// thread: the plain baseline of the shuffle, and its oracle.
func shuffleReplay(w *workload, a childArgs, rec *recorder, root int) error {
	c := w.shuffle
	id := rec.begin(root, "shuffle.serial_count")
	counts := make([]uint64, c.keys)
	for t := 0; t < c.tasks; t++ {
		data, err := os.ReadFile(taskPath(a.dir, t))
		if err != nil {
			return err
		}
		for ; len(data) >= shuffleRecLen; data = data[shuffleRecLen:] {
			counts[binary.BigEndian.Uint64(data)]++
		}
	}
	rec.end(id)
	var buf []byte
	for key, n := range counts {
		if n > 0 {
			buf = binary.BigEndian.AppendUint64(buf, uint64(key))
			buf = binary.BigEndian.AppendUint64(buf, n)
		}
	}
	return os.WriteFile(filepath.Join(a.out, oracleCountsFile), buf, 0o644)
}

// mpiProbe measures the in-process transport on its own: the median 8-byte
// round trip between ranks 0 and 1, and the median ReduceSum + Bcast of a
// codebook-sized buffer on the SOM job's rank count.
func mpiProbe(w *workload, layer map[string]float64) error {
	const trips, rounds = 20000, 200
	const tagPing, tagPong = 1, 2
	tripUS := make([]float64, 0, trips)
	err := mpiRunWith(2, mpiOptions{}, func(comm *mpiComm) error {
		for i := 0; i < trips; i++ {
			if comm.Rank() == 0 {
				t0 := time.Now()
				comm.Send(1, tagPing, make([]byte, 8))
				comm.Recv(1, tagPong)
				tripUS = append(tripUS, float64(time.Since(t0))/1e3)
			} else {
				msg, _ := comm.Recv(0, tagPing)
				comm.Send(0, tagPong, msg)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	layer["mpi.pingpong_us"] = median(tripUS)

	cells := 24 * 24 * 64
	if w.kind == kindSOM {
		cells = w.som.width * w.som.height * w.som.dim
	}
	roundMS := make([]float64, 0, rounds)
	err = mpiRunWith(computeRanks+1, mpiOptions{}, func(comm *mpiComm) error {
		local := make([]float64, cells)
		for i := 0; i < rounds; i++ {
			comm.Barrier()
			t0 := time.Now()
			total := reduceSumFloat64s(comm, 0, local)
			bcastFloat64s(comm, 0, total)
			if comm.Rank() == 0 {
				roundMS = append(roundMS, float64(time.Since(t0))/1e6)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	layer["mpi.reduce_bcast_ms"] = median(roundMS)
	return nil
}
