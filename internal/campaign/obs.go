package campaign

import (
	"fmt"
	"strings"

	"glitchlab/internal/emu"
	"glitchlab/internal/isa"
	"glitchlab/internal/mutate"
	"glitchlab/internal/obs"
)

// Metric names the campaign observer maintains. Per-outcome counters hold
// mutated executions only (k >= 1), so they always match the Figure 2
// outcome histogram exactly; the k = 0 controls are counted separately.
const (
	MetricRuns     = "campaign.runs_total"         // every execution, controls included
	MetricControls = "campaign.control_runs_total" // k = 0 unmodified controls
	MetricSteps    = "campaign.steps"              // retired instructions per execution
	MetricRetired  = "emu.instructions_retired"
	outcomePrefix  = "campaign.outcome."
	faultPrefix    = "emu.faults."
)

// DefaultProgressEvery is how many executions pass between progress ticks.
const DefaultProgressEvery = 1 << 16

// stepBounds is the number of MetricSteps bucket bounds: ExpBuckets(1, 2,
// stepBounds), plus an overflow bucket.
const stepBounds = 10

// metricName lowercases a display name into a metric-name segment
// ("Bad Read" -> "bad_read").
func metricName(s string) string {
	return strings.ReplaceAll(strings.ToLower(s), " ", "_")
}

// OutcomeMetric returns the counter name for an outcome
// ("campaign.outcome.bad_read").
func OutcomeMetric(o Outcome) string {
	return outcomePrefix + metricName(o.String())
}

// Observer instruments campaign sweeps: per-outcome counters, a
// steps-per-execution histogram, emulator fault counters, progress ticks
// and sampled per-execution trace records with a last-N-failures ring.
// A nil *Observer disables all instrumentation (the bare hot path).
//
// Each (condition, k) work unit fills its own unitObs in plain memory and
// returns it inside its result. The campaign merges every unit's
// observation in unit order, restored units included, on the goroutine
// that called Run. So the registry, the trace and the progress ticks
// depend on the units alone: not on the worker count, and not on a kill
// and resume. A live /metrics scrape lags by the units still running.
type Observer struct {
	tracer *obs.Tracer

	runs     *obs.Counter
	controls *obs.Counter
	retired  *obs.Counter
	outcomes [NumOutcomes]*obs.Counter
	faults   [emu.FaultSupervisor + 1]*obs.Counter
	hist     *obs.Histogram

	progress      func(done, total uint64)
	progressEvery uint64
	done, total   uint64
}

// NewObserver builds an observer recording into reg and, when tracer is
// non-nil, emitting trace records at the tracer's sampling rate.
func NewObserver(reg *obs.Registry, tracer *obs.Tracer) *Observer {
	o := &Observer{
		tracer:        tracer,
		runs:          reg.Counter(MetricRuns),
		controls:      reg.Counter(MetricControls),
		retired:       reg.Counter(MetricRetired),
		hist:          reg.Histogram(MetricSteps, obs.ExpBuckets(1, 2, stepBounds)),
		progressEvery: DefaultProgressEvery,
	}
	for i := range o.outcomes {
		o.outcomes[i] = reg.Counter(OutcomeMetric(Outcome(i)))
	}
	for k := 1; k < len(o.faults); k++ { // skip FaultNone: it never fires
		o.faults[k] = reg.Counter(faultPrefix + metricName(emu.FaultKind(k).String()))
	}
	return o
}

// OnProgress installs a progress callback. It runs after each merged unit
// that crosses a multiple of every executions, and once at the end of
// the campaign with done == total. every <= 0 keeps the default.
func (o *Observer) OnProgress(every uint64, fn func(done, total uint64)) {
	if every > 0 {
		o.progressEvery = every
	}
	o.progress = fn
}

// unitObs is what one observed (condition, k) unit saw beyond its outcome
// counts. It is checkpointed with them, so a resumed run merges the same
// observation an uninterrupted one does.
type unitObs struct {
	Faults  [emu.FaultSupervisor + 1]uint64 `json:"faults"`  // by emu.FaultKind
	Steps   [stepBounds + 1]uint64          `json:"steps"`   // MetricSteps buckets
	Retired uint64                          `json:"retired"` // instructions, the buckets' sum
	Trace   *obs.UnitTrace[execRecord]      `json:"trace,omitempty"`
}

// execRecord is one execution's trace record. It becomes an attrs map
// only when it is written.
type execRecord struct {
	Mask    uint16        `json:"mask"`
	Word    uint16        `json:"word"`
	Outcome Outcome       `json:"out"`
	Fault   emu.FaultKind `json:"fault"`
	Steps   uint64        `json:"steps"`
	Regs    [8]uint32     `json:"regs"` // r0-r7
	PC      uint32        `json:"pc"`
}

// unit starts the observation of the unit named key (nil when o is).
func (o *Observer) unit(key string) *unitObs {
	if o == nil {
		return nil
	}
	return &unitObs{Trace: obs.NewUnitTrace[execRecord](o.tracer, key)}
}

// record accounts one execution; the runner's CPU still holds its end
// state. A trace record is built only for a kept or failed execution.
func (u *unitObs) record(r *Runner, mask, word uint16, out Outcome, fault *emu.Fault) {
	var kind emu.FaultKind
	if fault != nil {
		kind = fault.Kind
		u.Faults[kind]++
	}
	steps := r.cpu.Steps
	u.Steps[obs.Pow2Bucket(steps, stepBounds)]++
	u.Retired += steps
	t := u.Trace
	if t == nil {
		return
	}
	kept := t.Sampled()
	if !kept && out != Failed {
		return
	}
	rec := execRecord{Mask: mask, Word: word, Outcome: out, Fault: kind, Steps: steps, PC: r.cpu.PC()}
	copy(rec.Regs[:], r.cpu.R[:8])
	if kept {
		t.Kept = append(t.Kept, rec)
	}
	if out == Failed {
		t.Fail(rec)
	}
}

// merge adds one unit's outcome counts and observation to the registry,
// writes its trace records and ticks progress. Units must arrive in unit
// order, on one goroutine.
func (o *Observer) merge(cond isa.Cond, model mutate.Model, fr FlipResult, u *unitObs) {
	if o == nil {
		return
	}
	o.runs.Add(fr.Total)
	if fr.Flips == 0 {
		o.controls.Add(fr.Total)
	} else {
		for i, n := range fr.Counts {
			o.outcomes[i].Add(n)
		}
	}
	o.retired.Add(u.Retired)
	for k, n := range u.Faults {
		if n != 0 {
			o.faults[k].Add(n)
		}
	}
	o.hist.Merge(u.Steps[:], float64(u.Retired))
	obs.WriteUnit(o.tracer, u.Trace, "campaign.exec", "campaign.exec",
		func(rec execRecord) map[string]any { return rec.attrs(cond, model, fr.Flips) })

	before := o.done
	o.done += fr.Total // done == total is left to finish's final tick
	if o.progress != nil && o.done/o.progressEvery != before/o.progressEvery && o.done != o.total {
		o.progress(o.done, o.total)
	}
}

// attrs renders the record as the campaign.exec trace attributes.
func (rec execRecord) attrs(cond isa.Cond, model mutate.Model, flips int) map[string]any {
	r := rec.Regs
	return map[string]any{
		"cond":    "b" + cond.String(),
		"model":   model.String(),
		"flips":   flips,
		"mask":    fmt.Sprintf("%#04x", rec.Mask),
		"word":    fmt.Sprintf("%#04x", rec.Word),
		"outcome": rec.Outcome.String(),
		"fault":   rec.Fault.String(),
		"steps":   rec.Steps,
		"regs": fmt.Sprintf("%#x %#x %#x %#x %#x %#x %#x %#x",
			r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7]),
		"pc": fmt.Sprintf("%#x", rec.PC),
	}
}

// finish emits the final progress tick.
func (o *Observer) finish() {
	if o != nil && o.progress != nil {
		o.progress(o.done, o.total)
	}
}
