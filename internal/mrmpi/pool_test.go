package mrmpi

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mpi"
	"repro/internal/obs"
)

// poolEmit is the shared map function of the pool tests: each task emits a
// deterministic run of pairs, several per task so merge order is visible.
func poolEmit(itask int, kv *KeyValue) error {
	for i := 0; i < 5; i++ {
		kv.AddString(fmt.Sprintf("t%03d-%d", itask, i), []byte{byte(itask), byte(i)})
	}
	return nil
}

// rankStreams runs a map under opt and returns each rank's ordered local
// pair sequence after Map (before any exchange).
func rankStreams(t *testing.T, nranks, nmap int, opt Options) [][]string {
	t.Helper()
	streams := make([][]string, nranks)
	var mu sync.Mutex
	runMR(t, nranks, opt, func(mr *MapReduce) error {
		if _, err := mr.Map(nmap, poolEmit); err != nil {
			return err
		}
		var pairs []string
		err := mr.KV().Each(func(k, v []byte) error {
			pairs = append(pairs, fmt.Sprintf("%s=%x", k, v))
			return nil
		})
		mu.Lock()
		streams[mr.Comm().Rank()] = pairs
		mu.Unlock()
		return err
	})
	return streams
}

// TestMapWorkersByteIdenticalStreams is the pool's central guarantee: with
// deterministic task assignment (chunk, stride), every rank's local KV pair
// sequence under a worker pool is identical to the serial run's — tasks
// merge in dispatch order, each task's pairs contiguous.
func TestMapWorkersByteIdenticalStreams(t *testing.T) {
	for _, style := range []MapStyle{MapStyleChunk, MapStyleStride} {
		for _, nranks := range []int{1, 3} {
			for _, workers := range []int{2, 4, 7} {
				name := fmt.Sprintf("%v-%dranks-%dworkers", style, nranks, workers)
				t.Run(name, func(t *testing.T) {
					const nmap = 23
					serial := rankStreams(t, nranks, nmap, Options{MapStyle: style})
					pooled := rankStreams(t, nranks, nmap, Options{MapStyle: style, MapWorkers: workers})
					for r := 0; r < nranks; r++ {
						if got, want := strings.Join(pooled[r], "\n"), strings.Join(serial[r], "\n"); got != want {
							t.Fatalf("rank %d stream differs under %d workers:\n got: %s\nwant: %s",
								r, workers, got, want)
						}
					}
				})
			}
		}
	}
}

// TestMapWorkersMasterGlobalEquivalence covers the master styles, whose
// task→rank assignment is scheduling-dependent even serially: the global
// sorted pair multiset must match the serial run, and no task may be lost
// or duplicated.
func TestMapWorkersMasterGlobalEquivalence(t *testing.T) {
	collect := func(opt Options) []string {
		var all []string
		var mu sync.Mutex
		runMR(t, 4, opt, func(mr *MapReduce) error {
			if _, err := mr.Map(31, poolEmit); err != nil {
				return err
			}
			return mr.KV().Each(func(k, v []byte) error {
				mu.Lock()
				all = append(all, fmt.Sprintf("%s=%x", k, v))
				mu.Unlock()
				return nil
			})
		})
		sort.Strings(all)
		return all
	}
	for _, style := range []MapStyle{MapStyleMaster, MapStyleMasterAffinity} {
		t.Run(style.String(), func(t *testing.T) {
			opt := Options{MapStyle: style}
			if style == MapStyleMasterAffinity {
				opt.Affinity = func(itask int) int { return itask % 3 }
			}
			serial := collect(opt)
			opt.MapWorkers = 3
			pooled := collect(opt)
			if strings.Join(serial, "\n") != strings.Join(pooled, "\n") {
				t.Fatalf("global pair multiset differs:\nserial %d pairs\npooled %d pairs",
					len(serial), len(pooled))
			}
		})
	}
}

// TestMapWorkersSpillingStagingKVs forces both the staging KVs and the rank
// KV out of core and checks the merged stream still matches serial.
func TestMapWorkersSpillingStagingKVs(t *testing.T) {
	base := Options{MapStyle: MapStyleChunk, PageSize: 64, MemSize: 128}
	serial := rankStreams(t, 2, 16, base)
	pooled := base
	pooled.MapWorkers = 3
	got := rankStreams(t, 2, 16, pooled)
	for r := range serial {
		if strings.Join(serial[r], "\n") != strings.Join(got[r], "\n") {
			t.Fatalf("rank %d spilled stream differs from serial", r)
		}
	}
}

// TestMapWorkersErrorPropagation: the pool must stop fetching after a
// failure, drain dispatched tasks, and report the lowest-dispatch-order
// error — which on a single chunk rank is the lowest failing task index.
func TestMapWorkersErrorPropagation(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) error {
		mr := NewWith(c, Options{MapWorkers: 4, SpillDir: t.TempDir()})
		defer mr.Close()
		_, err := mr.Map(20, func(itask int, kv *KeyValue) error {
			if itask == 7 || itask == 13 {
				return fmt.Errorf("boom %d", itask)
			}
			return poolEmit(itask, kv)
		})
		return err
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "map task 7") || !strings.Contains(err.Error(), "boom 7") {
		t.Fatalf("error = %v, want lowest failing task 7", err)
	}
}

// TestMapWorkersPanicBecomesError: a task that panics on a pool worker
// fails its rank with an error naming the rank, the task and the panic
// value, instead of crashing the process.
func TestMapWorkersPanicBecomesError(t *testing.T) {
	const bad = 5
	var panicRank atomic.Int32
	spill := t.TempDir()
	err := mpi.RunWith(2, mpi.RunOptions{}, func(c *mpi.Comm) error {
		mr := NewWith(c, Options{MapWorkers: 4, SpillDir: spill})
		defer mr.Close()
		_, err := mr.Map(16, func(itask int, kv *KeyValue) error {
			if itask == bad {
				panicRank.Store(int32(c.Rank()))
				panic("kaboom")
			}
			return poolEmit(itask, kv)
		})
		return err
	})
	if err == nil {
		t.Fatal("RunWith succeeded although a map task panicked")
	}
	want := fmt.Sprintf("rank %d: mrmpi: map task %d: panic: kaboom", panicRank.Load(), bad)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error = %v\nwant it to contain %q", err, want)
	}
}

// TestMapWorkersWorkerIndex checks the worker index contract: −1 serially,
// 0..W−1 under a pool.
func TestMapWorkersWorkerIndex(t *testing.T) {
	seen := map[int]bool{}
	var mu sync.Mutex
	record := func(_, worker int, _ *KeyValue) error {
		mu.Lock()
		seen[worker] = true
		mu.Unlock()
		return nil
	}
	err := mpi.Run(1, func(c *mpi.Comm) error {
		mr := NewWith(c, Options{SpillDir: t.TempDir()})
		defer mr.Close()
		_, err := mr.MapWorker(8, record)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || !seen[-1] {
		t.Fatalf("serial worker indexes = %v, want only -1", seen)
	}
	seen = map[int]bool{}
	err = mpi.Run(1, func(c *mpi.Comm) error {
		mr := NewWith(c, Options{MapWorkers: 3, SpillDir: t.TempDir()})
		defer mr.Close()
		_, err := mr.MapWorker(64, record)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for w := range seen {
		if w < 0 || w >= 3 {
			t.Fatalf("pooled worker index %d out of range [0,3)", w)
		}
	}
}

// TestMapWorkersStatsAndTrace runs a traced 4-rank master-style job with a
// pool on every rank and checks task accounting and that worker-track spans
// validate (the obs.Validate LIFO check, per track).
func TestMapWorkersStatsAndTrace(t *testing.T) {
	tracer := obs.NewTracer()
	taskTotal := 0
	var mu sync.Mutex
	err := mpi.RunWith(4, mpi.RunOptions{Trace: tracer}, func(c *mpi.Comm) error {
		mr := NewWith(c, Options{MapStyle: MapStyleMaster, MapWorkers: 2, SpillDir: t.TempDir()})
		defer mr.Close()
		if _, err := mr.Map(19, poolEmit); err != nil {
			return err
		}
		mu.Lock()
		taskTotal += mr.Stats().MapTasks
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if taskTotal != 19 {
		t.Fatalf("MapTasks across ranks = %d, want 19", taskTotal)
	}
	events := tracer.Events()
	if err := obs.Validate(events); err != nil {
		t.Fatalf("pooled trace failed validation: %v", err)
	}
	workerSpans := 0
	for _, ev := range events {
		if ev.Type == obs.BeginEvent && ev.Name == "map.task" {
			if ev.Track == 0 {
				t.Fatalf("pooled map.task span on rank track: %+v", ev)
			}
			workerSpans++
		}
	}
	if workerSpans != 19 {
		t.Fatalf("worker map.task spans = %d, want 19", workerSpans)
	}
}
