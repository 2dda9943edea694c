package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is the unified metrics store for a run: named counters, gauges,
// and histograms that all layers (mpi, mrmpi, mrblast, mrsom, blast,
// blastdb) publish into, superseding the per-layer ad-hoc stats structs.
// One registry serves every rank of a run — instruments are atomic or
// mutex-guarded, so concurrent ranks need no coordination.
//
// A nil *Registry is the disabled state: it hands out nil instruments whose
// methods no-op in a few nanoseconds. Hot paths should resolve instruments
// once (e.g. in a constructor) rather than per operation, since resolution
// takes a lock and a map lookup.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. Nil registry
// → nil counter (a valid no-op instrument).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{min: math.Inf(1), max: math.Inf(-1)}
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing sum. Methods are atomic and no-ops
// on a nil receiver.
type Counter struct{ v atomic.Int64 }

// Add adds d (callers pass non-negative deltas).
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current sum (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value reads the gauge (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histogramSampleCap bounds the per-histogram sample buffer used for
// quantile estimates. When the buffer fills, every other retained sample is
// dropped and the keep stride doubles — a deterministic decimation that
// keeps an evenly spaced subsample of the whole stream in bounded memory.
const histogramSampleCap = 2048

// Histogram summarizes a stream of observations with count/sum/min/max plus
// p50/p95/p99 quantile estimates from an evenly decimated sample buffer.
type Histogram struct {
	mu       sync.Mutex
	count    int64
	sum      float64
	min, max float64
	samples  []float64
	stride   int64 // keep every stride-th observation in samples
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.stride == 0 {
		h.stride = 1
	}
	if h.count%h.stride == 0 {
		h.samples = append(h.samples, v)
		if len(h.samples) >= histogramSampleCap {
			kept := h.samples[:0]
			for i := 0; i < len(h.samples); i += 2 {
				kept = append(kept, h.samples[i])
			}
			h.samples = kept
			h.stride *= 2
		}
	}
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Quantile returns the q-th quantile (q in [0,1]) of a sorted sample slice
// using linear interpolation between order statistics; 0 when empty. Shared
// by histogram snapshots and the trace analyzer's latency distributions.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string
	Value int64
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name  string
	Value int64
}

// HistogramValue is one histogram in a snapshot. P50/P95/P99 are quantile
// estimates from the histogram's decimated sample buffer (exact while the
// stream fits histogramSampleCap observations).
type HistogramValue struct {
	Name          string
	Count         int64
	Sum, Min, Max float64
	P50, P95, P99 float64
}

// Mean is Sum/Count (0 when empty).
func (h HistogramValue) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// RegistrySnapshot is a point-in-time copy of every instrument, each
// section sorted by name.
type RegistrySnapshot struct {
	Counters   []CounterValue
	Gauges     []GaugeValue
	Histograms []HistogramValue
}

// Snapshot copies the registry's current state (empty on nil).
func (r *Registry) Snapshot() RegistrySnapshot {
	var s RegistrySnapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		h.mu.Lock()
		hv := HistogramValue{Name: name, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
		samples := append([]float64(nil), h.samples...)
		h.mu.Unlock()
		if hv.Count == 0 {
			hv.Min, hv.Max = 0, 0
		}
		sort.Float64s(samples)
		hv.P50 = Quantile(samples, 0.50)
		hv.P95 = Quantile(samples, 0.95)
		hv.P99 = Quantile(samples, 0.99)
		s.Histograms = append(s.Histograms, hv)
	}
	r.mu.Unlock()
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
