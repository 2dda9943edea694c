// Package analyze computes performance analytics from an exported trace:
// per-rank busy/comm/idle time, per-phase load-imbalance factors (the
// paper's Fig. 3–6 efficiency driver), the master dispatch latency
// distribution, a ranked straggler report, and the critical path through
// p2p/collective edges. cmd/traceview -analyze renders the result.
package analyze

import (
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/causal"
)

// Default master-protocol tags, mirroring mrmpi's reserved range (kept as
// literals here so the analyzer stays a pure consumer of traces; they are
// asserted equal to mrmpi's exported constants in the tests).
const (
	// WorkerReadyTag marks a worker's task request to the master.
	WorkerReadyTag = 1<<20 + 1
	// TaskAssignTag marks the master's task assignment reply.
	TaskAssignTag = 1<<20 + 2
)

// Report is the full analysis of one trace.
type Report struct {
	// WallClock is the span of the trace clock (first to last event).
	WallClock time.Duration `json:"wall_clock_ns"`
	// NumRanks is the number of ranks that emitted events.
	NumRanks int `json:"num_ranks"`
	// Ranks is the per-rank busy/comm/idle decomposition, indexed by rank.
	Ranks []RankTime `json:"ranks"`
	// Phases summarizes each mrmpi phase's load balance across ranks.
	Phases []PhaseStat `json:"phases"`
	// Dispatch is the master dispatch latency distribution; nil when the
	// trace has no master-protocol traffic.
	Dispatch *DispatchStats `json:"dispatch,omitempty"`
	// Stragglers ranks every rank by busy time, slowest first, each with
	// the spans that made it slow.
	Stragglers []Straggler `json:"stragglers"`
	// CriticalPath is the chain of rank segments connected by p2p/collective
	// edges that determined the wall clock.
	CriticalPath CriticalPath `json:"critical_path"`
	// Blame is the per-rank blocked-on table: each rank's blocking-MPI wait
	// time attributed to the (peer, phase, span) whose send released it.
	Blame []RankBlame `json:"blame,omitempty"`
	// BlameCoverage is the fraction of measured wait time the blame tables
	// attribute (1.0 on a complete provenance-carrying trace).
	BlameCoverage float64 `json:"blame_coverage"`
	// Comm is the communication-matrix section; nil unless the caller
	// attaches one built by AnalyzeComm from a recorded comm.Matrix (the
	// matrix is a separate artifact from the trace, so Analyze alone cannot
	// produce it).
	Comm *CommReport `json:"comm,omitempty"`
}

// RankTime decomposes one rank's wall-clock share: Busy is time inside
// spans excluding MPI communication, Comm is time inside mpi spans
// (blocking receives, collectives), Idle is the remainder of the trace
// window the rank spent outside any span.
type RankTime struct {
	Rank int           `json:"rank"`
	Busy time.Duration `json:"busy_ns"`
	Comm time.Duration `json:"comm_ns"`
	Idle time.Duration `json:"idle_ns"`
}

// PhaseStat is the load-balance summary of one mrmpi phase. Busy time is
// the phase span minus the mpi time nested inside it — raw phase durations
// are equalized by the trailing collective, so they cannot expose
// imbalance; busy time can.
type PhaseStat struct {
	Name string `json:"name"`
	// BusyByRank is each rank's busy time within the phase (summed across
	// iterations), indexed by rank.
	BusyByRank []time.Duration `json:"busy_by_rank_ns"`
	Max        time.Duration   `json:"max_ns"`
	Mean       time.Duration   `json:"mean_ns"`
	// Imbalance is Max/Mean (1.0 = perfectly balanced; 0 when no rank did
	// any work). The paper's efficiency loss grows with this factor.
	Imbalance float64 `json:"imbalance"`
	// MaxRank is the rank holding Max.
	MaxRank int `json:"max_rank"`
}

// DispatchStats is the distribution of master dispatch latency: the time
// from a worker's ready request (Send tag WorkerReadyTag) to its receipt of
// the assignment (Recv end tag TaskAssignTag).
type DispatchStats struct {
	Count int           `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

// SpanContribution is one aggregated span kind on a straggler's profile.
type SpanContribution struct {
	Cat   string `json:"cat"`
	Name  string `json:"name"`
	Count int    `json:"count"`
	// Self is total self time: span durations minus their nested spans, so
	// container spans don't double-count their children.
	Self time.Duration `json:"self_ns"`
}

// Straggler is one rank in the ranked straggler report.
type Straggler struct {
	Rank int           `json:"rank"`
	Busy time.Duration `json:"busy_ns"`
	// TopSpans are the non-mpi span kinds with the most self time on this
	// rank, largest first.
	TopSpans []SpanContribution `json:"top_spans"`
}

// interval is a half-open [start, end) time range on the trace clock.
type interval struct{ start, end int64 }

// mergeIntervals sorts and coalesces overlapping intervals, returning the
// merged set and its total length.
func mergeIntervals(ivs []interval) ([]interval, int64) {
	if len(ivs) == 0 {
		return nil, 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.start <= last.end {
			if iv.end > last.end {
				last.end = iv.end
			}
			continue
		}
		out = append(out, iv)
	}
	var total int64
	for _, iv := range out {
		total += iv.end - iv.start
	}
	return out, total
}

// overlap is the length of iv ∩ [start, end).
func overlap(ivs []interval, start, end int64) int64 {
	var total int64
	for _, iv := range ivs {
		lo, hi := max64(iv.start, start), min64(iv.end, end)
		if hi > lo {
			total += hi - lo
		}
	}
	return total
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// argInt extracts an integer arg value. Traces read back from JSON carry
// numbers as float64, live traces as int — both are handled.
func argInt(args []obs.Arg, key string) (int64, bool) {
	for _, a := range args {
		if a.Key != key {
			continue
		}
		switch v := a.Val.(type) {
		case int:
			return int64(v), true
		case int64:
			return v, true
		case float64:
			return int64(v), true
		}
	}
	return 0, false
}

// Analyze computes the full report from a merged event stream (from
// Tracer.Events or obs.ReadTrace).
func Analyze(events []obs.Event) Report {
	var rep Report
	if len(events) == 0 {
		return rep
	}

	minTS, maxTS := events[0].TS, events[0].TS
	numRanks := 0
	for _, ev := range events {
		if ev.TS < minTS {
			minTS = ev.TS
		}
		if ev.TS > maxTS {
			maxTS = ev.TS
		}
		if ev.Rank+1 > numRanks {
			numRanks = ev.Rank + 1
		}
	}
	rep.WallClock = time.Duration(maxTS - minTS)
	rep.NumRanks = numRanks

	// Collect spans once; bucket the interval sets per rank.
	var spans []obs.SpanInstance
	obs.PairSpans(events, func(sp obs.SpanInstance) { spans = append(spans, sp) })
	commIvs := make([][]interval, numRanks) // mpi spans
	allIvs := make([][]interval, numRanks)  // every span
	for _, sp := range spans {
		iv := interval{sp.Start, sp.End()}
		allIvs[sp.Rank] = append(allIvs[sp.Rank], iv)
		if sp.Cat == "mpi" {
			commIvs[sp.Rank] = append(commIvs[sp.Rank], iv)
		}
	}
	mergedComm := make([][]interval, numRanks)
	rep.Ranks = make([]RankTime, numRanks)
	for r := 0; r < numRanks; r++ {
		var commLen, coveredLen int64
		mergedComm[r], commLen = mergeIntervals(commIvs[r])
		_, coveredLen = mergeIntervals(allIvs[r])
		rep.Ranks[r] = RankTime{
			Rank: r,
			Busy: time.Duration(coveredLen - commLen),
			Comm: time.Duration(commLen),
			Idle: time.Duration((maxTS - minTS) - coveredLen),
		}
	}

	rep.Phases = phaseStats(spans, mergedComm, numRanks)
	rep.Dispatch = dispatchStats(events, spans)
	rep.Stragglers = stragglers(events, rep.Ranks)

	// Cross-rank causality: stitch the happens-before DAG once, then read
	// the exact critical path and the wait-blame tables off it.
	g := causal.Build(events)
	rep.CriticalPath = g.CriticalPath()
	rep.Blame = g.Blame()
	rep.BlameCoverage = causal.Coverage(rep.Blame)
	return rep
}

// phaseStats computes busy-time load balance for each mrmpi phase.
// Per-rank phase-span durations are equalized by the trailing collective
// inside each phase, so imbalance must be measured on busy time: the phase
// interval minus the mpi communication nested in it.
func phaseStats(spans []obs.SpanInstance, mergedComm [][]interval, numRanks int) []PhaseStat {
	busy := map[string][]time.Duration{}
	var order []string
	for _, sp := range spans {
		if sp.Cat != "mrmpi" || sp.Name == "map.task" {
			continue
		}
		b := busy[sp.Name]
		if b == nil {
			b = make([]time.Duration, numRanks)
			busy[sp.Name] = b
			order = append(order, sp.Name)
		}
		comm := overlap(mergedComm[sp.Rank], sp.Start, sp.End())
		b[sp.Rank] += sp.Dur - time.Duration(comm)
	}
	out := make([]PhaseStat, 0, len(order))
	for _, name := range order {
		ps := PhaseStat{Name: name, BusyByRank: busy[name]}
		var sum time.Duration
		for r, d := range ps.BusyByRank {
			sum += d
			if d > ps.Max {
				ps.Max, ps.MaxRank = d, r
			}
		}
		ps.Mean = sum / time.Duration(numRanks)
		if ps.Mean > 0 {
			ps.Imbalance = float64(ps.Max) / float64(ps.Mean)
		}
		out = append(out, ps)
	}
	return out
}

// dispatchStats pairs each worker's ready request (Send instant to the
// master, tag WorkerReadyTag) with its next assignment receipt (Recv span
// ending with tag TaskAssignTag) on the same rank, in order — the latency a
// worker sits idle waiting for the master per task.
func dispatchStats(events []obs.Event, spans []obs.SpanInstance) *DispatchStats {
	readySends := map[int][]int64{} // rank -> ready-request times, in order
	for _, ev := range events {
		if ev.Type != obs.InstantEvent || ev.Cat != "mpi" || ev.Name != "Send" {
			continue
		}
		if tag, ok := argInt(ev.Args, "tag"); !ok || tag != WorkerReadyTag {
			continue
		}
		readySends[ev.Rank] = append(readySends[ev.Rank], ev.TS)
	}
	if len(readySends) == 0 {
		return nil
	}
	assigns := map[int][]int64{} // rank -> assignment receipt times, in order
	for _, sp := range spans {
		if sp.Cat != "mpi" || sp.Name != "Recv" {
			continue
		}
		if tag, ok := argInt(sp.EndArgs, "tag"); !ok || tag != TaskAssignTag {
			continue
		}
		assigns[sp.Rank] = append(assigns[sp.Rank], sp.End())
	}
	var lats []float64
	var maxLat time.Duration
	var sum time.Duration
	for rank, sends := range readySends {
		recvs := assigns[rank]
		sort.Slice(recvs, func(i, j int) bool { return recvs[i] < recvs[j] })
		n := len(sends)
		if len(recvs) < n {
			n = len(recvs)
		}
		for i := 0; i < n; i++ {
			lat := time.Duration(recvs[i] - sends[i])
			if lat < 0 {
				continue
			}
			lats = append(lats, float64(lat))
			sum += lat
			if lat > maxLat {
				maxLat = lat
			}
		}
	}
	if len(lats) == 0 {
		return nil
	}
	sort.Float64s(lats)
	return &DispatchStats{
		Count: len(lats),
		Mean:  sum / time.Duration(len(lats)),
		P50:   time.Duration(obs.Quantile(lats, 0.50)),
		P95:   time.Duration(obs.Quantile(lats, 0.95)),
		P99:   time.Duration(obs.Quantile(lats, 0.99)),
		Max:   maxLat,
	}
}

// selfTimes replays each rank's event stream with a span stack and
// aggregates self time (duration minus nested spans) by (rank, cat, name).
func selfTimes(events []obs.Event) map[int]map[[2]string]*SpanContribution {
	type frame struct {
		cat, name string
		start     int64
		child     int64
	}
	stacks := map[int][]frame{}
	out := map[int]map[[2]string]*SpanContribution{}
	for _, ev := range events {
		switch ev.Type {
		case obs.BeginEvent:
			stacks[ev.Rank] = append(stacks[ev.Rank], frame{cat: ev.Cat, name: ev.Name, start: ev.TS})
		case obs.EndEvent:
			st := stacks[ev.Rank]
			for i := len(st) - 1; i >= 0; i-- {
				if st[i].cat != ev.Cat || st[i].name != ev.Name {
					continue
				}
				f := st[i]
				stacks[ev.Rank] = append(st[:i], st[i+1:]...)
				dur := ev.TS - f.start
				if i > 0 {
					stacks[ev.Rank][i-1].child += dur
				}
				byKind := out[ev.Rank]
				if byKind == nil {
					byKind = map[[2]string]*SpanContribution{}
					out[ev.Rank] = byKind
				}
				key := [2]string{f.cat, f.name}
				c := byKind[key]
				if c == nil {
					c = &SpanContribution{Cat: f.cat, Name: f.name}
					byKind[key] = c
				}
				c.Count++
				c.Self += time.Duration(dur - f.child)
				break
			}
		}
	}
	return out
}

// stragglerTopSpans bounds how many span kinds each straggler entry lists.
const stragglerTopSpans = 3

// stragglers ranks every rank by busy time, slowest first, attaching the
// non-mpi span kinds with the most self time as the explanation.
func stragglers(events []obs.Event, ranks []RankTime) []Straggler {
	selves := selfTimes(events)
	out := make([]Straggler, 0, len(ranks))
	for _, rt := range ranks {
		s := Straggler{Rank: rt.Rank, Busy: rt.Busy}
		var contribs []SpanContribution
		for _, c := range selves[rt.Rank] {
			if c.Cat == "mpi" {
				continue
			}
			contribs = append(contribs, *c)
		}
		sort.Slice(contribs, func(i, j int) bool {
			if contribs[i].Self != contribs[j].Self {
				return contribs[i].Self > contribs[j].Self
			}
			return contribs[i].Name < contribs[j].Name
		})
		if len(contribs) > stragglerTopSpans {
			contribs = contribs[:stragglerTopSpans]
		}
		s.TopSpans = contribs
		out = append(out, s)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Busy > out[j].Busy })
	return out
}
