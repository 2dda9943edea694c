package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. IDs are unique within a trace file; Parent is 0
// for a root. Start and End are nanoseconds since the Unix epoch, so spans of
// different child processes line up in one file.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Workload string `json:"workload"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// recorder holds a process's spans in memory until the process ends. It is
// safe for the concurrent ranks of one job.
type recorder struct {
	mu       sync.Mutex
	workload string
	t0       time.Time
	base     int64
	spans    []span
}

func newRecorder(workload string) *recorder {
	now := time.Now()
	return &recorder{workload: workload, t0: now, base: now.UnixNano()}
}

// now reads the monotonic clock, offset to Unix time.
func (r *recorder) now() int64 { return r.base + int64(time.Since(r.t0)) }

// begin opens a span under parent (0 = root) and returns its ID.
func (r *recorder) begin(parent int, name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Workload: r.workload, Start: r.now()})
	return id
}

// end closes span id and returns its duration in seconds.
func (r *recorder) end(id int) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = r.now()
	return s.seconds()
}

// durations returns the length in seconds of every span called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of it
// that its child spans cover: the time the layer itself owns. Children that
// overlap (ranks running side by side) are counted once.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := map[string]float64{}
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		covered, edge := int64(0), s.Start
		for _, iv := range ivs {
			lo, hi := max(iv[0], edge), min(iv[1], s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// mergeSpans appends a child process's spans to all, shifting their IDs past
// the ones already there.
func mergeSpans(all, more []span) []span {
	shift := len(all)
	for _, s := range more {
		s.ID += shift
		if s.Parent != 0 {
			s.Parent += shift
		}
		all = append(all, s)
	}
	return all
}
