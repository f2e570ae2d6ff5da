package glitcher

import (
	"strings"

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
// counters, a per-(width, offset)-cell heatmap with summary coverage
// gauges, emulator fault counters, and trace records. Attach one to
// Model.Obs before running scans; a nil *Obs disables instrumentation.
//
// A scan's width row and a whole search are each one work unit. The unit
// fills its own UnitObs in plain memory, and Merge adds it to the
// registry and the trace. A scan merges its rows in row order on the
// goroutine that ran it, restored rows included, and a search merges its
// one observation when it returns. The best-cell gauges are evaluated at
// each merge: after every row, and once per search.
type Obs struct {
	reg    *obs.Registry
	tracer *obs.Tracer

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
// non-nil, emitting trace records at the tracer's sampling rate.
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

// Registry returns the registry o records into.
func (o *Obs) Registry() *obs.Registry { return o.reg }

// cellIndex maps a parameter point to its heatmap slot.
func cellIndex(p Params) int {
	return (p.Width+ParamRange)*(2*ParamRange+1) + (p.Offset + ParamRange)
}

// UnitObs is one work unit's observation: a scan's width row, or a whole
// search. A scan row travels inside the row's checkpointed result, so a
// resumed scan merges the same observation an uninterrupted one does. A
// nil *UnitObs (from a nil Obs) records nothing.
type UnitObs struct {
	Steps  uint64                          `json:"steps"`
	Faults [emu.FaultSupervisor + 1]uint64 `json:"faults"` // by emu.FaultKind
	First  int                             `json:"first"`  // heatmap cell of Tries[0]
	Tries  []uint32                        `json:"tries"`
	Hits   []uint32                        `json:"hits"`
	Trace  *obs.UnitTrace[attemptRecord]   `json:"trace,omitempty"`
}

// attemptRecord is one attempt's trace record: a success, kept by the
// sampling rule, or a fault, kept in the failure ring. It becomes an
// attrs map only when it is written.
type attemptRecord struct {
	Width  int                 `json:"width"`
	Offset int                 `json:"offset"`
	Reason pipeline.StopReason `json:"reason"`
	Steps  uint64              `json:"steps"`
	Cycles uint64              `json:"cycles"`
	Tag    string              `json:"tag,omitempty"`
	Fault  emu.FaultKind       `json:"fault,omitempty"`
}

// Unit starts the observation of the unit named key, whose attempts fall
// in the heatmap cells [first, first+n). It returns nil when o is nil.
func (o *Obs) Unit(key string, first, n int) *UnitObs {
	if o == nil {
		return nil
	}
	return &UnitObs{
		First: first,
		Tries: make([]uint32, n),
		Hits:  make([]uint32, n),
		Trace: obs.NewUnitTrace[attemptRecord](o.tracer, key),
	}
}

// NoEffect accounts a parameter point the deterministic model proves
// cannot disturb the run: the scan skips the emulation, but the paper's
// hardware rig would have burned a real attempt there, and the scan
// results count it, so the observer must too.
func (u *UnitObs) NoEffect(p Params) {
	if u == nil {
		return
	}
	u.Tries[cellIndex(p)-u.First]++
}

// Attempt accounts one emulated glitch attempt at parameter point p.
func (u *UnitObs) Attempt(p Params, r pipeline.Result) {
	if u == nil {
		return
	}
	u.Steps += r.Steps
	i := cellIndex(p) - u.First
	u.Tries[i]++
	rec := attemptRecord{Width: p.Width, Offset: p.Offset, Reason: r.Reason,
		Steps: r.Steps, Cycles: r.Cycles, Tag: r.Tag, Fault: r.Fault}
	switch r.Reason {
	case pipeline.StopHit:
		u.Hits[i]++
		if u.Trace != nil && u.Trace.Sampled() {
			u.Trace.Kept = append(u.Trace.Kept, rec)
		}
	case pipeline.StopFault:
		u.Faults[r.Fault]++
		if u.Trace != nil {
			u.Trace.Fail(rec)
		}
	}
}

// Merge adds one unit's observation to the registry (counters, heatmap,
// grid gauges) and writes its trace records. Call it in unit order, on
// one goroutine.
func (o *Obs) Merge(u *UnitObs) {
	if o == nil {
		return
	}
	o.steps.Add(u.Steps)
	for k, n := range u.Faults {
		if k != int(emu.FaultNone) && n != 0 {
			name := strings.ReplaceAll(emu.FaultKind(k).String(), " ", "_")
			o.reg.Counter(metricFaults + name).Add(n)
		}
	}
	var attempts, successes uint64 // every attempt has its cell
	for j, n := range u.Tries {
		if n == 0 {
			continue
		}
		attempts += uint64(n)
		successes += uint64(u.Hits[j])
		i := u.First + j
		if o.cellTries[i] == 0 {
			o.nTried++
		}
		o.cellTries[i] += n
		if h := u.Hits[j]; h != 0 {
			if o.cellHits[i] == 0 {
				o.nHit++
			}
			o.cellHits[i] += h
		}
		if rate := float64(o.cellHits[i]) / float64(o.cellTries[i]); rate > o.best {
			side := 2*ParamRange + 1
			o.best = rate
			o.bestRate.Set(rate)
			o.bestWidth.Set(float64(i/side - ParamRange))
			o.bestOffset.Set(float64(i%side - ParamRange))
		}
	}
	o.attempts.Add(attempts)
	o.successes.Add(successes)
	o.tried.Set(float64(o.nTried))
	o.coverage.Set(float64(o.nTried) / GridSize)
	o.hit.Set(float64(o.nHit))
	obs.WriteUnit(o.tracer, u.Trace, "scan.success", "scan.attempt", attemptRecord.attrs)
}

// attrs renders the record as its trace attributes.
func (rec attemptRecord) attrs() map[string]any {
	a := map[string]any{
		"width":  rec.Width,
		"offset": rec.Offset,
		"reason": rec.Reason.String(),
		"steps":  rec.Steps,
		"cycles": rec.Cycles,
	}
	if rec.Reason == pipeline.StopHit {
		a["tag"] = rec.Tag
	} else {
		a["fault"] = rec.Fault.String()
	}
	return a
}

// Span opens a tracer span (nil-safe).
func (o *Obs) Span(name string, attrs map[string]any) *obs.Span {
	if o == nil {
		return nil
	}
	return o.tracer.StartSpan(name, attrs)
}

// Event writes a tracer event (nil-safe). The search's milestones use it:
// they are rare, so every one is written.
func (o *Obs) Event(name string, attrs map[string]any) {
	if o == nil {
		return
	}
	o.tracer.Event(name, attrs)
}
