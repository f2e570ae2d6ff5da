// Package obs is glitchlab's observability layer: a stdlib-only metrics
// registry (counters, gauges, fixed-bucket histograms) with text/JSON
// snapshot renderers, an expvar publisher and an optional net/http
// endpoint, plus a structured trace layer that emits JSONL span and event
// records, a per-unit sampling rule and a "last N failures" ring buffer.
//
// The paper's evaluation rests on long exhaustive sweeps — the Section IV
// bit-flip campaigns behind Figure 2 and the Section V parameter scans
// behind Tables I-III — which previously ran as black boxes. This package
// gives every layer of the stack (emulator, campaign, glitcher, compiler
// pipeline) a common place to report progress, rates and timings, and is
// the substrate later sharded/parallel campaign work builds on.
//
// All metric types are safe for concurrent use. The hot paths are a single
// atomic add (Counter.Add, Gauge.Set) or a bucket search plus two atomic
// adds (Histogram.Observe); instrumented code should look metrics up once
// and cache the pointers rather than calling Registry.Counter per event.
package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits of the current value
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (compare-and-swap loop, safe under contention).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Bounds are inclusive
// upper bounds in ascending order; observations above the last bound land
// in an implicit overflow bucket.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is overflow
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// NewHistogram builds a histogram with the given ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sumBits, v)
}

// addFloat atomically adds delta to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Pow2Bucket returns the bucket of integer v in a histogram built with
// ExpBuckets(1, 2, n): one bit-length instruction instead of a bounds
// search, which matters when bucketing per emulated execution. n, the
// overflow bucket, is the largest index it returns.
func Pow2Bucket(v uint64, n int) int {
	i := 0
	if v > 1 {
		i = bits.Len64(v - 1)
	}
	return min(i, n)
}

// Merge adds observations bucketed elsewhere: counts[i] observations in
// bucket i (len(counts) is len(Bounds())+1, the last being the overflow
// bucket) whose values sum to sum. A work unit buckets its observations
// in plain memory, and its caller merges them once per unit.
func (h *Histogram) Merge(counts []uint64, sum float64) {
	var n uint64
	for i, c := range counts {
		h.buckets[i].Add(c)
		n += c
	}
	h.count.Add(n)
	addFloat(&h.sumBits, sum)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bounds returns the bucket upper bounds.
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// ExpBuckets returns n bounds start, start*factor, start*factor^2, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry (or use Default).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Default is the process-wide registry the compiler pipeline and the CLIs
// record into.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Reset drops every registered metric (tests and repeated experiment runs
// within one process).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = map[string]*Counter{}
	r.gauges = map[string]*Gauge{}
	r.hists = map[string]*Histogram{}
}
