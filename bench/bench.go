// Package bench is glitchbench, glitchlab's end-to-end benchmark. Each
// workload times one command a user runs — the Table VI evaluation, the
// Section V scans, the Figure 2 campaigns, a glitchd session and a fleet
// lint — from a workload seed, and checks every output it produces
// against committed goldens or an independent recomputation.
//
// An untraced run reports the end-to-end metrics (EndToEnd). A traced
// run reports the per-layer metrics (PerLayer), measured from outside
// the program: spans around runctl work units and around calls into the
// layers' public functions, a CPU profile grouped by package, and the
// counters glitchlab already records in obs.Default.
package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"glitchlab/internal/runctl"
)

// Workers is the engine worker count every workload uses, and
// GOMAXPROCS is capped at it: the load shape stays the same on hosts
// with more cores than the 2-vCPU reference host.
const Workers = 2

// Metric declares one reported metric and its unit.
type Metric struct {
	Name string
	Unit string
}

// EndToEnd lists the metrics an untraced run reports for every workload.
// The benchmark's own process measures setup_s (set-up probes) and
// peak_rss_mb (the run's rusage); Run measures the rest.
var EndToEnd = []Metric{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
}

// Layers are the packages the traced run's CPU profile is grouped into;
// "other" takes samples with no glitchlab frame (the harness, the HTTP
// transport) and the packages outside this list.
var Layers = []string{
	"isa", "emu", "pipeline", "firmware", "glitcher", "campaign", "mutate",
	"search", "core", "minic", "ir", "passes", "codegen", "analyze",
	"serve", "runctl", "obs", "report", "runtime", "other",
}

// PerLayer lists the metrics a traced run reports for every workload. A
// layer the workload does not exercise reports 0.
var PerLayer = append(cpuMetrics(), []Metric{
	{"bench.trace_overhead_pct", "%"},
	{"core.table6_cells", "count"},
	{"core.table6_cell_s", "s"},
	{"core.table6_cell_max_s", "s"},
	{"core.compile_s", "s"},
	{"minic.parse_s", "s"},
	{"minic.check_s", "s"},
	{"ir.lower_s", "s"},
	{"passes.instrument_s", "s"},
	{"codegen.build_s", "s"},
	{"glitcher.table1_s", "s"},
	{"glitcher.table2_s", "s"},
	{"glitcher.table3_s", "s"},
	{"search.find_s", "s"},
	{"glitcher.units", "count"},
	{"glitcher.parallel_eff", "ratio"},
	{"campaign.units", "count"},
	{"campaign.unit_s", "s"},
	{"campaign.unit_max_s", "s"},
	{"campaign.parallel_eff", "ratio"},
	{"campaign.wall_p90_s", "s"},
	{"serve.submit_s", "s"},
	{"serve.exec_s", "s"},
	{"serve.queue_wait_s", "s"},
	{"serve.warm_s", "s"},
	{"serve.latency_p95_s", "s"},
	{"serve.hit_ratio", "ratio"},
	{"serve.coalesced", "count"},
	{"serve.rejected", "count"},
	{"client.retries", "count"},
	{"runctl.checkpoints", "count"},
	{"runctl.flush_p50_us", "us"},
	{"runctl.flush_p99_us", "us"},
	{"runctl.checkpoint_mb", "MiB/job"},
	{"obs.trace_records", "records/job"},
	{"obs.trace_mb", "MiB/job"},
	{"serve.result_mb", "MiB/job"},
	{"serve.disk_mb", "MiB/job"},
	{"analyze.cache_hits", "count"},
	{"analyze.cache_misses", "count"},
	{"analyze.hit_ratio", "ratio"},
	{"analyze.cache_mb", "MiB"},
	{"lint.cold_s", "s"},
	{"lint.warm_s", "s"},
}...)

func cpuMetrics() []Metric {
	out := make([]Metric, len(Layers))
	for i, l := range Layers {
		out[i] = Metric{l + ".cpu_pct", "%"}
	}
	return out
}

// Config is one benchmark run.
type Config struct {
	Workload string
	// Seed is the workload seed: every input the run generates derives
	// from it, and nothing else.
	Seed uint64
	// Duration is how long the measured loop runs. An operation that has
	// started always finishes, and at least one runs.
	Duration time.Duration
	// Trace selects a traced run; TraceOut receives its JSONL spans.
	Trace    bool
	TraceOut string
	// WorkDir holds the run's scratch files (glitchd state, the lint
	// corpus and cache); the run removes what it creates there.
	WorkDir string
	// Small runs every workload at its minimum size (smoke tests).
	Small bool
}

// Result is one run's outcome. Failed counts operations whose output
// was wrong or whose call failed.
type Result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples is the number of measurements behind each timing.
	Samples map[string]int `json:"samples,omitempty"`
	Errors  []string       `json:"errors,omitempty"`
}

// workload is one named benchmark workload. prepare does the set-up
// setup_s measures and returns the measured part of the run. Why each
// workload is in the benchmark is in README.md.
type workload struct {
	name    string
	prepare func(r *runner) (measure func() error, err error)
}

var workloads = []workload{
	{"table6", prepareTable6},
	{"scan", prepareScan},
	{"campaign", prepareCampaign},
	{"serve", prepareServe},
	{"lint", prepareLint},
}

// Workloads returns the workload names in their canonical order.
func Workloads() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// runner carries one run's state through a workload.
type runner struct {
	cfg     Config
	golden  *Golden // this seed's golden; nil when none is committed
	ref     *Golden // the seed-1 golden, for outputs that ignore the seed
	dir     string  // this run's scratch directory
	res     *Result
	tr      *tracer // nil on untraced runs
	closers []func()
}

func newRunner(cfg Config) (*runner, error) {
	if cfg.WorkDir == "" {
		return nil, fmt.Errorf("bench: Config.WorkDir is required")
	}
	ref, err := LoadGolden(1)
	if err != nil {
		return nil, err
	}
	var g *Golden
	if !cfg.Small { // goldens pin full-size outputs only
		g, _ = LoadGolden(cfg.Seed) // nil when the seed has none
	}
	if err := os.MkdirAll(cfg.WorkDir, 0o777); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.WorkDir, cfg.Workload+"-")
	if err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, golden: g, ref: ref, dir: dir, res: &Result{
		Metrics: map[string]float64{}, Samples: map[string]int{},
	}}
	r.onClose(func() { os.RemoveAll(dir) })
	return r, nil
}

func (r *runner) onClose(fn func()) { r.closers = append(r.closers, fn) }

func (r *runner) close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
	r.closers = nil
}

// Fixture is a workload after set-up, before measurement.
type Fixture struct {
	r       *runner
	measure func() error
}

// Prepare performs a workload's set-up. Close releases it.
func Prepare(cfg Config) (*Fixture, error) {
	w, err := lookup(cfg.Workload)
	if err != nil {
		return nil, err
	}
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	measure, err := w.prepare(r)
	if err != nil {
		r.close()
		return nil, fmt.Errorf("bench: %s set-up: %w", cfg.Workload, err)
	}
	return &Fixture{r: r, measure: measure}, nil
}

// Close removes the fixture's scratch state and stops what it started.
func (f *Fixture) Close() { f.r.close() }

// Run prepares and measures one workload. A returned error means the run
// could not be carried out; wrong outputs are reported in the Result.
func Run(cfg Config) (*Result, error) {
	f, err := Prepare(cfg)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := f.r
	if cfg.Trace {
		if r.tr, err = newTracer(cfg.TraceOut); err != nil {
			return nil, err
		}
		defer r.tr.close()
	}
	if err := f.measure(); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", cfg.Workload, err)
	}
	if cfg.Trace {
		if err := r.tr.close(); err != nil {
			return nil, err
		}
	}
	return r.finish()
}

// finish checks the metric set against the declaration and settles
// correctness. Layers a workload does not exercise report 0.
func (r *runner) finish() (*Result, error) {
	want := EndToEnd
	if r.cfg.Trace {
		want = PerLayer
	}
	declared := map[string]bool{}
	for _, m := range want {
		declared[m.Name] = true
		if _, ok := r.res.Metrics[m.Name]; !ok && r.cfg.Trace {
			r.res.Metrics[m.Name] = 0
		}
	}
	for name := range r.res.Metrics {
		if !declared[name] {
			return nil, fmt.Errorf("bench: %s reported undeclared metric %q", r.cfg.Workload, name)
		}
	}
	if r.res.Attempted == 0 {
		return nil, fmt.Errorf("bench: %s attempted nothing", r.cfg.Workload)
	}
	r.res.Correct = r.res.Failed == 0
	return r.res, nil
}

// fail records one wrong output or failed operation.
func (r *runner) fail(format string, args ...any) {
	r.res.Failed++
	if len(r.res.Errors) < 20 {
		r.res.Errors = append(r.res.Errors, fmt.Sprintf(format, args...))
	}
}

// check records one verification and fails it when ok is false.
func (r *runner) check(ok bool, format string, args ...any) {
	r.res.Attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// newRun returns the run controller one CLI invocation would thread
// through its engines (runctl.New, no checkpoint directory), with the
// tracer's unit hooks attached on traced runs.
func (r *runner) newRun() *runctl.Run {
	rn := runctl.New(context.Background())
	r.tr.attach(rn)
	return rn
}

// op is one timed operation. It returns the check of its output, which
// runs after the operation's time is taken.
type op func() (check func(), err error)

// loop runs op until d has elapsed, at least once, and returns the wall
// time of every call in seconds. Each call counts as one attempted
// operation. A garbage collection before each call, outside its time,
// starts every call from a heap like a fresh process's.
func (r *runner) loop(d time.Duration, o op) []float64 {
	var walls []float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < d {
		runtime.GC()
		sp := r.tr.span("bench.op", map[string]any{"workload": r.cfg.Workload})
		t := time.Now()
		check, err := o()
		walls = append(walls, time.Since(t).Seconds())
		sp.End()
		r.res.Attempted++
		if err != nil {
			r.fail("%s: %v", r.cfg.Workload, err)
		} else if check != nil {
			check()
		}
	}
	return walls
}

// report sets a timing metric to the median of samples.
func (r *runner) report(name string, samples []float64) {
	r.res.Metrics[name] = Median(samples)
	r.res.Samples[name] = len(samples)
}

// reportLoop sets wall_s and ops_per_s from a measured loop's walls.
func (r *runner) reportLoop(walls []float64) {
	r.report("wall_s", walls)
	r.res.Metrics["ops_per_s"] = float64(len(walls)) / sum(walls)
	r.res.Samples["ops_per_s"] = len(walls)
}

// refLoop is the traced run's untraced reference: it runs op with the
// tracer detached for a quarter of the run (at least once) and sets
// bench.trace_overhead_pct from the traced and untraced median walls.
func (r *runner) refLoop(traced []float64, o op) {
	tr := r.tr
	r.tr = nil
	untraced := r.loop(r.cfg.Duration/4, o)
	r.tr = tr
	r.overhead(traced, untraced)
}

func (r *runner) overhead(traced, untraced []float64) {
	if u := Median(untraced); u > 0 {
		r.res.Metrics["bench.trace_overhead_pct"] = (Median(traced)/u - 1) * 100
	}
}

// Median returns the median of xs (0 for none).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) int64 {
	var n int64
	filepath.WalkDir(root, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

const mib = 1 << 20
