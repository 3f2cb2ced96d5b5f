package trace

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds named metric instruments. Instruments are created
// lazily on first use and live for the registry's lifetime; Snapshot
// (export.go) captures their values for the metrics JSON exporter.
// All methods are safe for concurrent use and for nil receivers.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the named monotonic counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named fixed-bucket histogram, creating it with
// the given bucket upper bounds if needed (bounds are ignored on later
// lookups of an existing histogram).
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hists == nil {
		r.hists = make(map[string]*Histogram)
	}
	h, ok := r.hists[name]
	if !ok {
		bs := make([]float64, len(bounds))
		copy(bs, bounds)
		sort.Float64s(bs)
		h = &Histogram{bounds: bs, counts: make([]int64, len(bs)+1),
			min: math.Inf(1), max: math.Inf(-1)}
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Add increments the counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins float64.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set stores the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// SetMax stores v only if it exceeds the current value (high-water
// gauges such as peak occupancy).
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	if v > g.v {
		g.v = v
	}
	g.mu.Unlock()
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram is a fixed-bucket histogram. Bucket i counts observations v
// with bounds[i-1] < v <= bounds[i] (upper-inclusive); the final bucket
// counts everything above the last bound.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64
	count  int64
	sum    float64
	min    float64
	max    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Quantile returns an approximation of the q-th quantile of the
// observed values plus the observation count. The estimate is the upper
// bound of the bucket containing the quantile, clamped to the observed
// min/max — with exponential buckets that is within one bucket factor of
// the true value, which is all the hedging heuristic needs.
//
// Edge cases are total: a nil or empty histogram returns (0, 0); a
// single-sample histogram returns that sample for every q; q <= 0 (and
// NaN) returns the observed min, q >= 1 the observed max.
func (h *Histogram) Quantile(q float64) (float64, int64) {
	if h == nil {
		return 0, 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0, 0
	}
	if q <= 0 || math.IsNaN(q) {
		return h.min, h.count
	}
	if q >= 1 {
		return h.max, h.count
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	v := h.max
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i < len(h.bounds) {
				v = h.bounds[i]
			}
			break
		}
	}
	if v > h.max {
		v = h.max
	}
	if v < h.min {
		v = h.min
	}
	return v, h.count
}

// snapshot captures the histogram under its lock.
func (h *Histogram) snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]int64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
	}
	if h.count > 0 {
		s.Min, s.Max = h.min, h.max
	}
	return s
}

// ExpBuckets returns n exponentially spaced bucket upper bounds
// starting at start and multiplying by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// The default bucket sets are built once: they are asked for per task
// and per attempt, tracer or no tracer, and Registry.Histogram copies
// the bounds it keeps. Callers must not modify the returned slice.
var (
	latencyBuckets = ExpBuckets(1e3, 2, 25)
	byteBuckets    = ExpBuckets(64, 4, 12)
)

// LatencyBuckets are the default duration buckets in nanoseconds:
// 1µs, 2µs, ... doubling up to ~17s. Used for task-latency and
// GC-pause distributions.
func LatencyBuckets() []float64 { return latencyBuckets }

// ByteBuckets are the default size buckets: 64B, 256B, ... ×4 up to
// ~1GB. Used for serde byte-count distributions.
func ByteBuckets() []float64 { return byteBuckets }
