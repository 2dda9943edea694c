package mrmpi

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// Intra-rank parallel map execution. Each MPI rank may run its map tasks on
// a bounded pool of Options.MapWorkers goroutines while the rank goroutine
// retains exclusive ownership of everything shared: the communicator (task
// sources fetch on the rank goroutine, so the master protocol's Send/Recv
// never runs concurrently), the rank KV, and the stats counters. Workers
// emit into per-task staging KVs that the rank goroutine merges in task
// DISPATCH order — so the rank KV's byte stream, and with it aggregation,
// spill layout, and final output, is identical to a serial run regardless
// of worker count or task completion order.

// runTasks drains a task source through run, serially or on a worker pool
// per Options.MapWorkers. next is always called on the caller's goroutine.
func (mr *MapReduce) runTasks(run MapWorkerFunc, next func() (int, bool)) error {
	if w := mr.opt.MapWorkers; w > 1 {
		return mr.runTasksPooled(run, next, w)
	}
	for {
		itask, ok := next()
		if !ok {
			return nil
		}
		mr.stats.MapTasks++
		if err := run(itask, -1, mr.kv); err != nil {
			return fmt.Errorf("mrmpi: map task %d: %w", itask, err)
		}
	}
}

// poolTask is one dispatched unit: seq is the dispatch ordinal that fixes
// the merge order.
type poolTask struct {
	seq, itask int
}

// poolResult is one completed unit, carrying the staging KV its pairs were
// emitted into.
type poolResult struct {
	seq, itask int
	kv         *KeyValue
	err        error
}

// runRecovered runs one task on a pool worker, turning a panic into the
// task's error: the rank goroutine's recover cannot see a worker's panic,
// which would otherwise kill the whole process.
func runRecovered(run MapWorkerFunc, itask, worker int, kv *KeyValue) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	return run(itask, worker, kv)
}

// runTasksPooled executes tasks on `workers` goroutines. The dispatch loop
// interleaves fetching (next), handing tasks to idle workers, and merging
// finished staging KVs; a select keeps the rank goroutine from blocking on
// a full task queue while results wait. On a task error no new tasks are
// fetched (matching the serial early stop), every already-dispatched task
// is still drained, and the lowest-dispatch-order error is returned.
func (mr *MapReduce) runTasksPooled(run MapWorkerFunc, next func() (int, bool), workers int) error {
	tasks := make(chan poolTask)
	results := make(chan poolResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for t := range tasks {
				kv := mr.newLocalKV()
				err := runRecovered(run, t.itask, w, kv)
				results <- poolResult{seq: t.seq, itask: t.itask, kv: kv, err: err}
			}
		}(w)
	}

	var (
		held        *poolTask              // fetched but not yet handed to a worker
		pending     = map[int]poolResult{} // finished, waiting for their merge turn
		seq         int                    // next dispatch ordinal
		nextSeq     int                    // next ordinal to merge
		outstanding int                    // dispatched, result not yet received
		fetchMore   = true
		firstErr    error
		mergeErr    error
	)
	// merge folds every result whose turn has come into the rank KV, in
	// dispatch order. Pages are adopted wholesale (already wire-encoded);
	// page boundaries may differ from a serial run but the frame sequence —
	// the bytes every consumer sees — does not.
	merge := func(r poolResult) {
		pending[r.seq] = r
		for {
			q, ok := pending[nextSeq]
			if !ok {
				return
			}
			delete(pending, nextSeq)
			nextSeq++
			if q.err != nil && firstErr == nil {
				firstErr = fmt.Errorf("mrmpi: map task %d: %w", q.itask, q.err)
			}
			if q.err == nil && firstErr == nil && mergeErr == nil {
				pages, err := q.kv.store.retainPages()
				if err == nil {
					for _, p := range pages {
						if len(p) == 0 {
							continue
						}
						if err = mr.kv.store.appendEncodedPage(p, countFrames(p)); err != nil {
							break
						}
					}
				}
				if err != nil {
					mergeErr = fmt.Errorf("mrmpi: merging map task %d output: %w", q.itask, err)
				}
			}
			mr.retireKV(q.kv)
			q.kv.reset()
		}
	}

	for {
		if held == nil && fetchMore {
			if itask, ok := next(); ok {
				held = &poolTask{seq: seq, itask: itask}
				seq++
			} else {
				fetchMore = false
			}
		}
		if held == nil && outstanding == 0 {
			break
		}
		if held != nil {
			select {
			case tasks <- *held:
				held = nil
				outstanding++
				mr.stats.MapTasks++
			case r := <-results:
				outstanding--
				if r.err != nil {
					fetchMore = false
				}
				merge(r)
			}
		} else {
			r := <-results
			outstanding--
			if r.err != nil {
				fetchMore = false
			}
			merge(r)
		}
	}
	close(tasks)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return mergeErr
}
