package campaign

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"glitchlab/internal/emu"
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
// The per-execution path writes only plain (non-atomic) fields plus one
// atomic add on the shared progress counter; the shared registry metrics
// are updated at every progress boundary (OnProgress's interval,
// DefaultProgressEvery unless changed), at the end of each branch sweep
// and when the campaign finishes. A live /metrics scrape therefore lags
// the campaign by at most one progress interval — the cost of keeping
// instrumented sweeps within a few percent of bare ones (see
// BenchmarkCampaignInstrumented).
//
// An Observer is single-goroutine; every campaign worker records through
// its own Shard. Shards share the registry counters, the tracer and the
// progress accounting, so flushed totals do not depend on how the work
// was split.
type Observer struct {
	reg    *obs.Registry
	tracer *obs.Tracer

	runs     *obs.Counter
	controls *obs.Counter
	retired  *obs.Counter
	outcomes [NumOutcomes]*obs.Counter
	faults   [emu.FaultSupervisor + 1]*obs.Counter
	hist     *obs.Histogram
	steps    *obs.HistShard

	// local accumulation since the last flush
	lruns, lcontrols, lretired uint64
	loutcomes                  [NumOutcomes]uint64
	lfaults                    [emu.FaultSupervisor + 1]uint64

	progress      func(done, total uint64)
	progressEvery uint64
	prog          *progressState
}

// progressState is the campaign-wide progress accounting, shared by every
// shard of one Observer so ticks and denominators stay coherent when the
// campaign is split across workers.
type progressState struct {
	done  atomic.Uint64
	total atomic.Uint64
	mu    sync.Mutex // serializes the user progress callback
}

// NewObserver builds an observer recording into reg and, when tracer is
// non-nil, emitting trace records. Metric pointers are resolved once here
// so the per-execution path stays lock-free.
func NewObserver(reg *obs.Registry, tracer *obs.Tracer) *Observer {
	o := &Observer{
		reg:           reg,
		tracer:        tracer,
		runs:          reg.Counter(MetricRuns),
		controls:      reg.Counter(MetricControls),
		retired:       reg.Counter(MetricRetired),
		hist:          reg.Histogram(MetricSteps, obs.ExpBuckets(1, 2, 10)),
		progressEvery: DefaultProgressEvery,
		prog:          &progressState{},
	}
	o.steps = o.hist.Shard()
	for i := range o.outcomes {
		o.outcomes[i] = reg.Counter(OutcomeMetric(Outcome(i)))
	}
	for k := 1; k < len(o.faults); k++ { // skip FaultNone: it never fires
		o.faults[k] = reg.Counter(faultPrefix + metricName(emu.FaultKind(k).String()))
	}
	return o
}

// OnProgress installs a progress callback invoked every `every` executions
// and once at the end of the campaign. every <= 0 keeps the default.
func (o *Observer) OnProgress(every uint64, fn func(done, total uint64)) {
	if every > 0 {
		o.progressEvery = every
	}
	o.progress = fn
}

// setTotal announces the campaign's planned execution count (progress
// denominators; 0 means unknown).
func (o *Observer) setTotal(total uint64) {
	o.prog.total.Store(total)
}

// Shard returns an observer that records into the same registry metrics,
// tracer and progress accounting as o but buffers its per-execution
// accumulation privately, so each campaign worker can instrument its own
// runners without locks. Flush boundaries are unchanged (progress ticks
// and sweep ends); the parent's finish flushes only the parent, so every
// shard must be flushed before the campaign's results are merged. A nil
// receiver shards to nil, keeping the bare hot path bare.
func (o *Observer) Shard() *Observer {
	if o == nil {
		return nil
	}
	s := *o
	s.lruns, s.lcontrols, s.lretired = 0, 0, 0
	s.loutcomes = [NumOutcomes]uint64{}
	s.lfaults = [emu.FaultSupervisor + 1]uint64{}
	s.steps = o.hist.Shard()
	return &s
}

// attach wires the observer's fault accounting into a runner's CPU.
func (o *Observer) attach(cpu *emu.CPU) {
	cpu.Hooks.OnFault = func(f *emu.Fault) {
		if int(f.Kind) < len(o.lfaults) {
			o.lfaults[f.Kind]++
		}
	}
}

// flush publishes the local accumulation into the shared registry metrics.
func (o *Observer) flush() {
	if o == nil {
		return
	}
	if o.lruns != 0 {
		o.runs.Add(o.lruns)
		o.lruns = 0
	}
	if o.lcontrols != 0 {
		o.controls.Add(o.lcontrols)
		o.lcontrols = 0
	}
	if o.lretired != 0 {
		o.retired.Add(o.lretired)
		o.lretired = 0
	}
	for i, n := range o.loutcomes {
		if n != 0 {
			o.outcomes[i].Add(n)
			o.loutcomes[i] = 0
		}
	}
	for k, n := range o.lfaults {
		if n != 0 && o.faults[k] != nil {
			o.faults[k].Add(n)
			o.lfaults[k] = 0
		}
	}
	o.steps.Flush()
}

// record accounts one perturbed execution.
func (o *Observer) record(r *Runner, model mutate.Model, flips int, mask, word uint16, out Outcome, fault *emu.Fault) {
	o.lruns++
	if flips == 0 {
		o.lcontrols++
	} else {
		o.loutcomes[out]++
	}
	steps := r.cpu.Steps
	o.steps.ObservePow2(steps) // MetricSteps uses ExpBuckets(1, 2, 10)
	o.lretired += steps

	done := o.prog.done.Add(1)
	if done%o.progressEvery == 0 {
		o.flush()
		o.tick(done)
	}

	if o.tracer == nil {
		return
	}
	faultName := "none"
	if fault != nil {
		faultName = fault.Kind.String()
	}
	attrs := map[string]any{
		"cond":    "b" + r.cond.String(),
		"model":   model.String(),
		"flips":   flips,
		"mask":    fmt.Sprintf("%#04x", mask),
		"word":    fmt.Sprintf("%#04x", word),
		"outcome": out.String(),
		"fault":   faultName,
		"steps":   steps,
		"regs": fmt.Sprintf("%#x %#x %#x %#x %#x %#x %#x %#x",
			r.cpu.R[0], r.cpu.R[1], r.cpu.R[2], r.cpu.R[3],
			r.cpu.R[4], r.cpu.R[5], r.cpu.R[6], r.cpu.R[7]),
		"pc": fmt.Sprintf("%#x", r.cpu.PC()),
	}
	o.tracer.Event("campaign.exec", attrs)
	if out == Failed {
		o.tracer.Failure("campaign.exec", attrs)
	}
}

// tick reports progress to the user callback, serialized across shards.
func (o *Observer) tick(done uint64) {
	if o.progress == nil {
		return
	}
	o.prog.mu.Lock()
	o.progress(done, o.prog.total.Load())
	o.prog.mu.Unlock()
}

// finish flushes the accumulation and emits the final progress tick.
func (o *Observer) finish() {
	if o == nil {
		return
	}
	o.flush()
	o.tick(o.prog.done.Load())
}

// span opens a tracer span (nil-safe passthrough).
func (o *Observer) span(name string, attrs map[string]any) *obs.Span {
	if o == nil {
		return nil
	}
	return o.tracer.StartSpan(name, attrs)
}
