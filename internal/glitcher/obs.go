package glitcher

import (
	"sync"

	"glitchlab/internal/emu"
	"glitchlab/internal/obs"
	"glitchlab/internal/pipeline"
)

// Metric names the scan observer maintains.
const (
	MetricAttempts   = "scan.attempts_total"
	MetricSuccesses  = "scan.successes_total"
	MetricSteps      = "scan.steps_retired_total"
	MetricGridPoints = "scan.grid.points"         // parameter points per cycle (constant)
	MetricGridTried  = "scan.grid.tried_points"   // distinct cells attempted so far
	MetricGridHit    = "scan.grid.success_points" // distinct cells with >= 1 success
	MetricCoverage   = "scan.grid.coverage"       // tried / points
	MetricBestRate   = "scan.grid.best_rate"      // best per-cell success rate
	MetricBestWidth  = "scan.grid.best_width"     // width of the best cell
	MetricBestOffset = "scan.grid.best_offset"    // offset of the best cell
	metricFaults     = "emu.faults."              // shared namespace with campaign
)

// Obs instruments parameter-space scans and searches: attempt/success
// counters, per-(width, offset)-cell success-rate accounting with summary
// coverage gauges, emulator fault counters, and trace records. Attach one
// to Model.Obs before running scans; a nil *Obs disables instrumentation.
// Obs itself is single-goroutine (the search calls it directly); every
// scan worker records into its own ObsShard, whose Flush merges into the
// parent under mu — the only lock on the scan path.
type Obs struct {
	reg    *obs.Registry
	tracer *obs.Tracer
	mu     sync.Mutex // guards the cell fields during shard merges

	attempts  *obs.Counter
	successes *obs.Counter
	steps     *obs.Counter

	points, tried, hit              *obs.Gauge
	coverage                        *obs.Gauge
	bestRate, bestWidth, bestOffset *obs.Gauge

	cellTries [GridSize]uint32
	cellHits  [GridSize]uint32
	nTried    int
	nHit      int
	best      float64
}

// NewObs builds a scan observer recording into reg and, when tracer is
// non-nil, emitting trace records.
func NewObs(reg *obs.Registry, tracer *obs.Tracer) *Obs {
	o := &Obs{
		reg:        reg,
		tracer:     tracer,
		attempts:   reg.Counter(MetricAttempts),
		successes:  reg.Counter(MetricSuccesses),
		steps:      reg.Counter(MetricSteps),
		points:     reg.Gauge(MetricGridPoints),
		tried:      reg.Gauge(MetricGridTried),
		hit:        reg.Gauge(MetricGridHit),
		coverage:   reg.Gauge(MetricCoverage),
		bestRate:   reg.Gauge(MetricBestRate),
		bestWidth:  reg.Gauge(MetricBestWidth),
		bestOffset: reg.Gauge(MetricBestOffset),
	}
	o.points.Set(GridSize)
	return o
}

// cellIndex maps a parameter point to its heatmap slot.
func cellIndex(p Params) int {
	return (p.Width+ParamRange)*(2*ParamRange+1) + (p.Offset + ParamRange)
}

// AttachTarget wires the observer's fault counters into a target's CPU.
func (o *Obs) AttachTarget(t *Target) {
	if o == nil {
		return
	}
	t.Board.CPU.Hooks.OnFault = func(f *emu.Fault) {
		o.reg.Counter(metricFaults + metricSegment(f.Kind.String())).Inc()
	}
}

// metricSegment lowercases a display name into a metric-name segment.
func metricSegment(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c == ' ' {
			b[i] = '_'
		}
	}
	return string(b)
}

// Attempt accounts one glitch attempt at parameter point p.
func (o *Obs) Attempt(p Params, r pipeline.Result) {
	if o == nil {
		return
	}
	o.attempts.Inc()
	o.steps.Add(r.Steps)
	i := cellIndex(p)
	if o.cellTries[i] == 0 {
		o.nTried++
		o.tried.Set(float64(o.nTried))
		o.coverage.Set(float64(o.nTried) / GridSize)
	}
	o.cellTries[i]++
	success := r.Reason == pipeline.StopHit
	if success {
		o.successes.Inc()
		if o.cellHits[i] == 0 {
			o.nHit++
			o.hit.Set(float64(o.nHit))
		}
		o.cellHits[i]++
	}
	// Track the best cell seen so far (rates can decay as a cell gathers
	// failed attempts; the gauge is "best ever observed", which is what a
	// live dashboard wants during a scan).
	if rate := float64(o.cellHits[i]) / float64(o.cellTries[i]); rate > o.best {
		o.best = rate
		o.bestRate.Set(rate)
		o.bestWidth.Set(float64(p.Width))
		o.bestOffset.Set(float64(p.Offset))
	}
	o.trace(p, r, success)
}

// trace emits the per-attempt trace records (successes and faults). The
// tracer is safe for concurrent use, so shards call this directly.
func (o *Obs) trace(p Params, r pipeline.Result, success bool) {
	if o.tracer == nil || (!success && r.Reason != pipeline.StopFault) {
		return
	}
	attrs := map[string]any{
		"width":  p.Width,
		"offset": p.Offset,
		"reason": r.Reason.String(),
		"steps":  r.Steps,
		"cycles": r.Cycles,
	}
	if success {
		attrs["tag"] = r.Tag
		o.tracer.Event("scan.success", attrs)
	} else {
		attrs["fault"] = r.Fault.String()
		o.tracer.Failure("scan.attempt", attrs)
	}
}

// NoEffect accounts a parameter point the deterministic model proves
// cannot disturb the run: the scan skips the emulation, but the paper's
// hardware rig would have burned a real attempt there, and the scan
// results count it, so the observer must too.
func (o *Obs) NoEffect(p Params) {
	if o == nil {
		return
	}
	o.attempts.Inc()
	i := cellIndex(p)
	if o.cellTries[i] == 0 {
		o.nTried++
		o.tried.Set(float64(o.nTried))
		o.coverage.Set(float64(o.nTried) / GridSize)
	}
	o.cellTries[i]++
}

// CellRate returns the observed success rate of one (width, offset) cell
// and the number of attempts behind it.
func (o *Obs) CellRate(p Params) (rate float64, attempts uint64) {
	if o == nil {
		return 0, 0
	}
	i := cellIndex(p)
	if o.cellTries[i] == 0 {
		return 0, 0
	}
	return float64(o.cellHits[i]) / float64(o.cellTries[i]), uint64(o.cellTries[i])
}

// Span opens a tracer span (nil-safe).
func (o *Obs) Span(name string, attrs map[string]any) *obs.Span {
	if o == nil {
		return nil
	}
	return o.tracer.StartSpan(name, attrs)
}

// Event emits a tracer event (nil-safe).
func (o *Obs) Event(name string, attrs map[string]any) {
	if o == nil {
		return
	}
	o.tracer.Event(name, attrs)
}

// guardAttrs is the common span attribute set for per-guard scans.
func guardAttrs(g Guard) map[string]any {
	return map[string]any{"guard": g.String()}
}

// cellParams is the inverse of cellIndex.
func cellParams(i int) Params {
	side := 2*ParamRange + 1
	return Params{Width: i/side - ParamRange, Offset: i%side - ParamRange}
}

// ObsShard is a per-worker observation buffer for scans, built on the same
// batching idea as obs.HistShard: the per-attempt path writes plain
// worker-local memory, and Flush merges everything into the parent Obs in
// one locked pass. Because every attempt lands in exactly one shard and
// every shard is flushed before a scan returns, the flushed counters and
// coverage gauges are exact and do not depend on the worker count.
// A nil *ObsShard (from a nil parent) disables instrumentation.
type ObsShard struct {
	o                   *Obs
	attempts, successes uint64
	steps               uint64
	cellTries, cellHits []uint32
}

// Shard returns a fresh worker-local observation buffer, or nil when o is
// nil. Not safe for concurrent use; give each worker its own shard.
func (o *Obs) Shard() *ObsShard {
	if o == nil {
		return nil
	}
	return &ObsShard{
		o:         o,
		cellTries: make([]uint32, GridSize),
		cellHits:  make([]uint32, GridSize),
	}
}

// Attempt accounts one glitch attempt at parameter point p.
func (s *ObsShard) Attempt(p Params, r pipeline.Result) {
	if s == nil {
		return
	}
	s.attempts++
	s.steps += r.Steps
	i := cellIndex(p)
	s.cellTries[i]++
	success := r.Reason == pipeline.StopHit
	if success {
		s.successes++
		s.cellHits[i]++
	}
	s.o.trace(p, r, success)
}

// NoEffect accounts a parameter point the model proves cannot disturb the
// run (see Obs.NoEffect).
func (s *ObsShard) NoEffect(p Params) {
	if s == nil {
		return
	}
	s.attempts++
	s.cellTries[cellIndex(p)]++
}

// Flush merges the shard into its parent Obs and resets the shard. The
// shared counters take batched atomic adds; the cell heatmap, coverage
// gauges and best-cell gauges are updated under the parent's merge lock.
// The best-cell gauge is evaluated at merge granularity, so it can differ
// from what Obs.Attempt's per-attempt tracking would report (a cell's rate
// is seen when its worker's shard flushes, not after each attempt); the
// coverage and tried/hit cell counts are exact.
func (s *ObsShard) Flush() {
	if s == nil {
		return
	}
	o := s.o
	if s.attempts != 0 {
		o.attempts.Add(s.attempts)
	}
	if s.successes != 0 {
		o.successes.Add(s.successes)
	}
	if s.steps != 0 {
		o.steps.Add(s.steps)
	}
	o.mu.Lock()
	for i, n := range s.cellTries {
		if n == 0 {
			continue
		}
		if o.cellTries[i] == 0 {
			o.nTried++
		}
		o.cellTries[i] += n
		if h := s.cellHits[i]; h != 0 {
			if o.cellHits[i] == 0 {
				o.nHit++
			}
			o.cellHits[i] += h
		}
		if rate := float64(o.cellHits[i]) / float64(o.cellTries[i]); rate > o.best {
			p := cellParams(i)
			o.best = rate
			o.bestRate.Set(rate)
			o.bestWidth.Set(float64(p.Width))
			o.bestOffset.Set(float64(p.Offset))
		}
	}
	o.tried.Set(float64(o.nTried))
	o.coverage.Set(float64(o.nTried) / GridSize)
	o.hit.Set(float64(o.nHit))
	o.mu.Unlock()
	s.attempts, s.successes, s.steps = 0, 0, 0
	for i := range s.cellTries {
		s.cellTries[i], s.cellHits[i] = 0, 0
	}
}
