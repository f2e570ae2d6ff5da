// Command glitchbench runs glitchlab's end-to-end benchmark (package
// glitchlab/bench): named workloads generated from a workload seed, every
// output checked against committed goldens, every metric printed by name
// with its unit. Run it from the bench directory:
//
//	go run ./cmd/glitchbench -workload all -seed 1       # end-to-end metrics
//	go run ./cmd/glitchbench -workload scan -trace 1     # per-layer metrics
//	go run ./cmd/glitchbench -workload campaign -repeat 5
//	go run ./cmd/glitchbench -update                     # regenerate goldens
//
// Each workload run executes in its own child process, so peak_rss_mb
// belongs to one workload; setup_s is the median over eleven separate
// set-up processes. The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"wall_s":{"value":0.09,"unit":"s"},...}}
//
// With several runs (-workload all, -repeat) its metrics are medians
// over the runs, named <workload>.<metric> when several workloads ran.
// The exit status is 1 when a run failed or produced a wrong output.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"glitchlab/bench"
)

// setupProbes is how many separate processes measure set-up time; a
// process start is a few milliseconds, so one sample is noisy.
const setupProbes = 11

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	traceOut string
	repeat   int
	workDir  string
	update   bool
	child    bool
	probe    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all",
		"workload to run: "+strings.Join(bench.Workloads(), ", ")+", or all")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed (1 and 2 have committed goldens)")
	flag.IntVar(&o.seconds, "seconds", 10, "how long each run measures")
	flag.IntVar(&o.trace, "trace", 0, "1 for a traced run printing the per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "",
		"JSONL span file of a traced run (default .bench_build/trace/<workload>-seed<n>.jsonl)")
	flag.IntVar(&o.repeat, "repeat", 1, "runs per workload, with seeds seed, seed+1, ...")
	flag.StringVar(&o.workDir, "workdir", filepath.Join(".bench_build", "work"),
		"scratch directory for glitchd state and the lint corpus")
	flag.BoolVar(&o.update, "update", false,
		"regenerate testdata/golden (run from the bench directory) and exit")
	flag.BoolVar(&o.child, "child", false, "internal: run one workload in this process")
	flag.BoolVar(&o.probe, "setup-probe", false, "internal: set one workload up, print ready, exit")
	flag.Parse()

	runtime.GOMAXPROCS(min(runtime.NumCPU(), bench.Workers))
	var err error
	switch {
	case o.update:
		err = update(o)
	case o.child:
		err = child(o)
	case o.probe:
		err = probe(o)
	default:
		err = parent(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "glitchbench:", err)
		os.Exit(1)
	}
}

func (o options) config(workload string, seed uint64) bench.Config {
	return bench.Config{
		Workload: workload,
		Seed:     seed,
		Duration: time.Duration(o.seconds) * time.Second,
		Trace:    o.trace == 1,
		TraceOut: o.traceOut,
		WorkDir:  o.workDir,
	}
}

func child(o options) error {
	res, err := bench.Run(o.config(o.workload, o.seed))
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

func probe(o options) error {
	f, err := bench.Prepare(o.config(o.workload, o.seed))
	if err != nil {
		return err
	}
	fmt.Println("ready")
	f.Close()
	return nil
}

func update(o options) error {
	goldenDir := filepath.Join("testdata", "golden")
	if err := os.MkdirAll(o.workDir, 0o777); err != nil {
		return err
	}
	for _, seed := range bench.GoldenSeeds {
		dir, err := os.MkdirTemp(o.workDir, "golden-")
		if err != nil {
			return err
		}
		g, err := bench.ComputeGolden(seed, dir)
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("golden seed %d: %w", seed, err)
		}
		if err := bench.WriteGolden(goldenDir, g); err != nil {
			return err
		}
		fmt.Printf("wrote the seed-%d golden (%d serve specs)\n", seed, len(g.Serve))
	}
	return nil
}

// run is one workload run as the parent saw it.
type run struct {
	workload string
	seed     uint64
	res      bench.Result
}

func parent(o options) error {
	names := bench.Workloads()
	if o.workload != "all" {
		if !slices.Contains(names, o.workload) {
			return fmt.Errorf("unknown workload %q (want %s or all)",
				o.workload, strings.Join(names, ", "))
		}
		names = []string{o.workload}
	}
	if o.trace != 0 && o.trace != 1 {
		return errors.New("-trace takes 0 or 1")
	}
	if o.repeat < 1 || o.seconds < 1 {
		return errors.New("-repeat and -seconds must be at least 1")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var runs []run
	for _, w := range names {
		var mine []run
		for i := 0; i < o.repeat; i++ {
			rr, err := measure(exe, o, w, o.seed+uint64(i), len(names)*o.repeat > 1)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, o.seed+uint64(i), err)
			}
			printRun(rr, metricDefs(o))
			mine = append(mine, rr)
		}
		if o.repeat > 1 {
			printSpread(mine, metricDefs(o))
		}
		runs = append(runs, mine...)
	}
	correct, err := printResult(runs, metricDefs(o), len(names) > 1)
	if err != nil {
		return err
	}
	if !correct {
		os.Exit(1)
	}
	return nil
}

func metricDefs(o options) []bench.Metric {
	if o.trace == 1 {
		return bench.PerLayer
	}
	return bench.EndToEnd
}

// measure runs the set-up probes and then the workload itself, each in
// a child process of this binary.
func measure(exe string, o options, w string, seed uint64, several bool) (run, error) {
	rr := run{workload: w, seed: seed}
	args := []string{"-workload", w, "-seed", fmt.Sprint(seed), "-workdir", o.workDir}
	var setups []float64
	if o.trace == 0 {
		for i := 0; i < setupProbes; i++ {
			d, err := setupTime(exe, append([]string{"-setup-probe"}, args...))
			if err != nil {
				return rr, err
			}
			setups = append(setups, d)
		}
	}
	traceOut := o.traceOut
	if o.trace == 1 {
		name := fmt.Sprintf("%s-seed%d", w, seed)
		switch {
		case traceOut == "":
			traceOut = filepath.Join(".bench_build", "trace", name+".jsonl")
		case several:
			ext := filepath.Ext(traceOut)
			traceOut = strings.TrimSuffix(traceOut, ext) + "-" + name + ext
		}
	}
	args = append(args, "-child", "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(o.trace), "-trace-out", traceOut)
	ctx, cancel := context.WithTimeout(context.Background(),
		max(170*time.Second, 4*time.Duration(o.seconds)*time.Second))
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return rr, fmt.Errorf("workload process: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rr.res); err != nil {
		return rr, fmt.Errorf("workload process printed no result: %w", err)
	}
	if o.trace == 0 {
		rr.res.Metrics["setup_s"] = bench.Median(setups)
		rr.res.Samples["setup_s"] = len(setups)
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return rr, errors.New("no rusage for the workload process")
		}
		rr.res.Metrics["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return rr, nil
}

// setupTime starts a set-up probe and returns the seconds until it
// reports its set-up done; it waits for the probe to exit.
func setupTime(exe string, args []string) (float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(stdout).ReadString('\n')
	d := time.Since(start).Seconds()
	io.Copy(io.Discard, stdout)
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	if rerr != nil || line != "ready\n" {
		return 0, fmt.Errorf("set-up probe did not report ready")
	}
	return d, nil
}

func printRun(rr run, defs []bench.Metric) {
	fmt.Printf("%s seed=%d correct=%t attempted=%d failed=%d\n",
		rr.workload, rr.seed, rr.res.Correct, rr.res.Attempted, rr.res.Failed)
	for _, e := range rr.res.Errors {
		fmt.Printf("  FAIL %s\n", e)
	}
	for _, m := range defs {
		v, ok := rr.res.Metrics[m.Name]
		if !ok {
			continue
		}
		note := ""
		if n, ok := rr.res.Samples[m.Name]; ok {
			note = fmt.Sprintf("n=%d", n)
		}
		fmt.Printf("  %-26s %14.6g %-11s %s\n", m.Name, v, m.Unit, note)
	}
}

// printSpread prints, per metric over one workload's runs, the median,
// the quartiles, the interquartile range and (max-min) as shares of the
// median.
func printSpread(runs []run, defs []bench.Metric) {
	fmt.Printf("%s over %d runs (seeds %d-%d):\n", runs[0].workload, len(runs),
		runs[0].seed, runs[len(runs)-1].seed)
	fmt.Printf("  %-26s %12s %12s %12s %9s %9s\n", "metric", "median", "q1", "q3", "iqr/med", "rng/med")
	for _, m := range defs {
		var xs []float64
		for _, rr := range runs {
			if v, ok := rr.res.Metrics[m.Name]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			continue
		}
		sort.Float64s(xs)
		med, q1, q3 := bench.Median(xs), quartile(xs, 1), quartile(xs, 3)
		iqr, rng := 0.0, 0.0
		if med != 0 {
			iqr, rng = (q3-q1)/med, (xs[len(xs)-1]-xs[0])/med
		}
		fmt.Printf("  %-26s %12.6g %12.6g %12.6g %9.4f %9.4f\n", m.Name, med, q1, q3, iqr, rng)
	}
}

// quartile returns the k-th quartile of sorted xs the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method).
func quartile(xs []float64, k int) float64 {
	n := len(xs)
	if n == 1 {
		return xs[0]
	}
	pos := float64(k*(n+1)) / 4
	j := int(pos)
	switch {
	case j < 1:
		return xs[0] - (xs[1]-xs[0])*(1-pos) // extrapolates like Python
	case j >= n:
		return xs[n-1] + (xs[n-1]-xs[n-2])*(pos-float64(n))
	}
	return xs[j-1] + (pos-float64(j))*(xs[j]-xs[j-1])
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints the final JSON line and reports whether every run
// was correct.
func printResult(runs []run, defs []bench.Metric, several bool) (bool, error) {
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	type series struct {
		unit string
		xs   []float64
	}
	byName := map[string]*series{}
	for _, rr := range runs {
		out.Attempted += rr.res.Attempted
		out.Failed += rr.res.Failed
		out.Correct = out.Correct && rr.res.Correct
		for _, m := range defs {
			v, ok := rr.res.Metrics[m.Name]
			if !ok {
				return false, fmt.Errorf("%s printed no %s", rr.workload, m.Name)
			}
			name := m.Name
			if several {
				name = rr.workload + "." + m.Name
			}
			if byName[name] == nil {
				byName[name] = &series{unit: m.Unit}
			}
			byName[name].xs = append(byName[name].xs, v)
		}
	}
	for name, s := range byName {
		out.Metrics[name] = value{bench.Median(s.xs), s.unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	fmt.Println(string(data))
	return out.Correct, nil
}
