package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

const (
	scaleFull  = "full"
	scaleSmoke = "smoke"

	kindBlast   = "blast"
	kindSOM     = "som"
	kindShuffle = "shuffle"
)

// workload is one set of inputs and the job run on them. Sizes are fixed per
// scale and do not depend on the seed: the seed changes the content of the
// sequences, vectors and pairs, never how many there are, so runs on
// different seeds do comparable work.
type workload struct {
	name string
	why  string
	kind string
	// unit is what work_per_s counts.
	unit string
	// ranks is the MPI world size of the job.
	ranks int

	blast   blastConfig
	som     somConfig
	shuffle shuffleConfig

	// generate writes the workload's inputs under dir from seed.
	generate func(seed int64, dir string) (setupInfo, error)
}

// setupInfo is what one input generation reports.
type setupInfo struct {
	// work is the stated input size behind work_per_s.
	work int
	// synthS and formatS are the parts of the set-up spent in the bio
	// generators and in blastdb.Format.
	synthS, formatS float64
}

type blastConfig struct {
	protein   bool
	filter    bool
	blockSize int
	evalue    float64
}

type somConfig struct {
	vectors, dim  int
	width, height int
	epochs, block int
}

type shuffleConfig struct {
	tasks, pairs, keys int
	memSize            int64
}

// Paths of the generated inputs below a workload's input directory.
func queriesPath(dir string) string  { return filepath.Join(dir, "queries.fa") }
func manifestPath(dir string) string { return filepath.Join(dir, "db", "db.json") }
func vectorsPath(dir string) string  { return filepath.Join(dir, "vectors.bin") }
func taskPath(dir string, t int) string {
	return filepath.Join(dir, fmt.Sprintf("task%03d.kv", t))
}

func workloads(scale string) []*workload {
	smoke := scale == scaleSmoke
	pick := func(full, small int) int {
		if smoke {
			return small
		}
		return full
	}
	shred := shredParams{FragLen: 400, Overlap: 200, MinLen: 100}

	reads := &workload{
		name: "blastn-reads", kind: kindBlast, unit: "queries", ranks: computeRanks + 1,
		why:   "every read hits its genome and strain (~2 hits/read): gapped extension and traceback do the work, shuffle and DB load almost none",
		blast: blastConfig{blockSize: pick(250, 40), evalue: 1e-5},
	}
	reads.generate = func(seed int64, dir string) (setupInfo, error) {
		taxa, glen := pick(5, 2), pick(40000, 4000)
		t0 := time.Now()
		g := newGenerator(synthParams{Seed: seed})
		db := g.GenerateGenomeSet(genomeParams{
			NTaxa: taxa, MinLen: glen, MaxLen: glen, StrainsPerGenome: 1, StrainIdentity: 0.92,
		}).All()
		queries, err := shredAll(db, shred)
		if err != nil {
			return setupInfo{}, err
		}
		synth := time.Since(t0)
		return writeBlastInputs(dir, db, queries, false, int64(glen), synth)
	}

	decoy := &workload{
		name: "blastn-decoy", kind: kindBlast, unit: "queries", ranks: computeRanks + 1,
		why:   "19 of 20 reads come from genomes absent from the DB: word scan, lookup build, spurious seeds and per-unit overheads own the time, traceback idles",
		blast: blastConfig{blockSize: pick(100, 25), evalue: 1e-5},
	}
	decoy.generate = func(seed int64, dir string) (setupInfo, error) {
		taxa, glen := pick(8, 2), pick(60000, 4000)
		foreign, flen := pick(6, 1), pick(60000, 4000)
		t0 := time.Now()
		g := newGenerator(synthParams{Seed: seed})
		set := g.GenerateGenomeSet(genomeParams{
			NTaxa: taxa, MinLen: glen, MaxLen: glen, StrainsPerGenome: 1, StrainIdentity: 0.92,
		})
		var unrelated, strains []*sequence
		for i := 0; i < foreign; i++ {
			unrelated = append(unrelated, g.RandomDNA(fmt.Sprintf("foreign%02d", i), flen))
		}
		for _, s := range set.Strains {
			strains = append(strains, s...)
		}
		decoys, err := shredAll(unrelated, shred)
		if err != nil {
			return setupInfo{}, err
		}
		planted, err := shredAll(strains, shred)
		if err != nil {
			return setupInfo{}, err
		}
		// One strain read after every 19 decoys (5 %), taken evenly from
		// across the strains so every partition holds a few true hits.
		nplant := len(decoys) / 19
		var queries []*sequence
		for i, d := range decoys {
			queries = append(queries, d)
			if k := i / 19; i%19 == 18 && k < nplant {
				queries = append(queries, planted[k*len(planted)/nplant])
			}
		}
		synth := time.Since(t0)
		return writeBlastInputs(dir, set.All(), queries, false, int64(glen), synth)
	}

	remote := &workload{
		name: "blastp-remote", kind: kindBlast, unit: "queries", ranks: computeRanks + 1,
		why:   "blastp with SEG on remote homologs and decoys: neighbourhood lookup build, two-hit scan and BLOSUM62 ungapped extension own the time, traceback little",
		blast: blastConfig{protein: true, filter: true, blockSize: pick(100, 20), evalue: 1e-4},
	}
	remote.generate = func(seed int64, dir string) (setupInfo, error) {
		nprot, nquery := pick(1200, 60), pick(500, 40)
		t0 := time.Now()
		g := newGenerator(synthParams{Seed: seed})
		db := make([]*sequence, nprot)
		for i := range db {
			// Lengths sweep 150–600 aa in a fixed order (181 and 451 are
			// coprime), so the residue total is the same on every seed.
			db[i] = g.RandomProtein(fmt.Sprintf("prot%04d", i), 150+i*181%451)
		}
		queries := make([]*sequence, nquery)
		for j := range queries {
			id := fmt.Sprintf("q%04d", j)
			if j%3 == 2 {
				queries[j] = g.RandomProtein(id, 250)
			} else {
				queries[j] = g.Mutate(db[j*7%nprot], id, 0.30, 0.01, alphaProtein)
			}
		}
		synth := time.Since(t0)
		return writeBlastInputs(dir, db, queries, true, int64(pick(40000, 4000)), synth)
	}

	spill := &workload{
		name: "shuffle-spill", kind: kindShuffle, unit: "pairs", ranks: computeRanks,
		why: "mrmpi alone, reducer memory far below the input: 16 MiB MemSize puts page spill and the external sort of Convert on the hot path",
		shuffle: shuffleConfig{
			tasks: pick(48, 4), pairs: pick(40000, 2000), keys: pick(200000, 500),
			memSize: int64(pick(16<<20, 64<<10)),
		},
	}
	spill.generate = func(seed int64, dir string) (setupInfo, error) {
		c := spill.shuffle
		for t := 0; t < c.tasks; t++ {
			if err := writeTaskFile(taskPath(dir, t), seed, t, c); err != nil {
				return setupInfo{}, err
			}
		}
		return setupInfo{work: c.tasks * c.pairs}, nil
	}

	batch := &workload{
		name: "som-batch", kind: kindSOM, unit: "vector-epochs", ranks: computeRanks + 1,
		why: "batch SOM kernel plus, per epoch, one codebook Bcast, one Reduce and a master dispatch per 40-vector block: mpi latency sits on the critical path",
		som: somConfig{
			vectors: pick(10240, 400), dim: pick(64, 8),
			width: pick(24, 6), height: pick(24, 6),
			epochs: pick(8, 3), block: 40,
		},
	}
	batch.generate = func(seed int64, dir string) (setupInfo, error) {
		c := batch.som
		t0 := time.Now()
		// 64 loose clusters: with few tight ones every vector of a cluster
		// picks the same first BMU, the first epoch leaves the map flat to
		// rounding error, and serial and parallel training diverge.
		data, _ := clusteredVectors(seed, c.vectors, c.dim, 64, 0.3)
		synth := time.Since(t0)
		if err := writeVectorFile(vectorsPath(dir), data, c.vectors, c.dim); err != nil {
			return setupInfo{}, err
		}
		return setupInfo{work: c.vectors * c.epochs, synthS: synth.Seconds()}, nil
	}

	return []*workload{reads, decoy, remote, spill, batch}
}

// selectWorkloads resolves a comma-separated -workload value ("" = all).
func selectWorkloads(names, scale string) ([]*workload, error) {
	all := workloads(scale)
	if names == "" {
		return all, nil
	}
	var out []*workload
	for _, name := range strings.Split(names, ",") {
		found := false
		for _, w := range all {
			if w.name == name {
				out = append(out, w)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}

// writeBlastInputs formats db and writes the query FASTA: the formatdb step
// of a BLAST user.
func writeBlastInputs(dir string, db, queries []*sequence, protein bool, targetResidues int64, synth time.Duration) (setupInfo, error) {
	alpha := alphaDNA
	if protein {
		alpha = alphaProtein
	}
	t0 := time.Now()
	_, err := formatDB(db, alpha, filepath.Dir(manifestPath(dir)), "db", formatOptions{TargetResidues: targetResidues})
	if err != nil {
		return setupInfo{}, err
	}
	format := time.Since(t0)
	if err := writeFastaFile(queriesPath(dir), queries); err != nil {
		return setupInfo{}, err
	}
	return setupInfo{work: len(queries), synthS: synth.Seconds(), formatS: format.Seconds()}, nil
}

// Shuffle task files hold fixed-size records: an 8-byte big-endian key
// followed by a 48-byte value.
const (
	shuffleKeyLen = 8
	shuffleValLen = 48
	shuffleRecLen = shuffleKeyLen + shuffleValLen
)

// lcg is Knuth's 64-bit linear congruential generator; the high bits are the
// usable ones.
type lcg uint64

func (s *lcg) next() uint64 {
	*s = *s*6364136223846793005 + 1442695040888963407
	return uint64(*s)
}

// writeTaskFile writes the pairs of shuffle task t: keys uniform over
// c.keys distinct values, values filled from the same generator.
func writeTaskFile(path string, seed int64, t int, c shuffleConfig) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	state := lcg(uint64(seed)*0x9E3779B97F4A7C15 + uint64(t) + 1)
	state.next()
	var rec [shuffleRecLen]byte
	for i := 0; i < c.pairs; i++ {
		binary.BigEndian.PutUint64(rec[:], (state.next()>>33)%uint64(c.keys))
		for off := shuffleKeyLen; off < shuffleRecLen; off += 8 {
			binary.LittleEndian.PutUint64(rec[off:], state.next())
		}
		if _, err := bw.Write(rec[:]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// inputDigest is the SHA-256 over every file under dir (relative name, then
// content, in name order): the identity of one generated input set.
func inputDigest(dir string) (string, error) {
	var names []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			names = append(names, path)
		}
		return err
	})
	if err != nil {
		return "", err
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		rel, err := filepath.Rel(dir, name)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(rel))
		f, err := os.Open(name)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
