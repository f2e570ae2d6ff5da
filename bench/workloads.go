package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"glitchlab/internal/analyze"
	"glitchlab/internal/analyze/corpus"
	"glitchlab/internal/core"
	"glitchlab/internal/difftest"
	"glitchlab/internal/obs"
	"glitchlab/internal/serve"
)

func scanSpec(seed uint64, exp string) serve.Spec {
	return serve.Spec{Kind: serve.KindScan, Exp: exp, Seed: seed}
}

// campaignSpec is glitchemu's default run: the four published Figure 2
// variants with flip budget k.
func campaignSpec(k int) serve.Spec {
	return serve.Spec{Kind: serve.KindCampaign, MaxFlips: k}
}

// measure runs op as the run's measured loop. Untraced, it reports wall_s
// and ops_per_s. Traced, it runs the loop under the CPU profiler and
// returns the operations' walls and runctl units for the workload's
// layer metrics.
func (r *runner) measure(o op) ([]float64, []unitSpan, error) {
	if r.tr == nil {
		walls := r.loop(r.cfg.Duration, o)
		r.reportLoop(walls)
		return walls, nil, nil
	}
	var walls []float64
	var units []unitSpan
	err := r.traced(func() {
		walls = r.loop(r.cfg.Duration, o)
		units = r.tr.takeUnits()
	})
	return walls, units, err
}

// compileStages maps core.Compile's stage histograms to layer metrics.
var compileStages = []struct{ stage, metric string }{
	{"parse", "minic.parse_s"},
	{"check", "minic.check_s"},
	{"lower", "ir.lower_s"},
	{"instrument", "passes.instrument_s"},
	{"codegen", "codegen.build_s"},
}

// traced runs a traced run's measured phase under the CPU profiler and
// reports the layer metrics every workload shares: the compile stages
// and runctl checkpoint flushes glitchlab records in obs.Default.
func (r *runner) traced(phase func()) error {
	before := obs.Default.Snapshot()
	if err := r.profileCPU(phase); err != nil {
		return err
	}
	after := obs.Default.Snapshot()
	total := 0.0
	for _, s := range compileStages {
		d := histDelta(before, after, "compile."+s.stage+".duration_us")
		if d.Count > 0 {
			per := d.Sum / float64(d.Count) / 1e6
			r.res.Metrics[s.metric] = per
			total += per
		}
	}
	r.res.Metrics["core.compile_s"] = total
	flush := histDelta(before, after, "runctl.checkpoint_flush_us")
	r.res.Metrics["runctl.checkpoints"] = float64(flush.Count)
	r.res.Metrics["runctl.flush_p50_us"] = histQuantile(flush, 0.5)
	r.res.Metrics["runctl.flush_p99_us"] = histQuantile(flush, 0.99)
	return nil
}

// histDelta returns what histogram name recorded between two snapshots.
func histDelta(before, after obs.Snapshot, name string) obs.HistogramValue {
	find := func(s obs.Snapshot) obs.HistogramValue {
		for _, h := range s.Histograms {
			if h.Name == name {
				return h
			}
		}
		return obs.HistogramValue{}
	}
	a, b := find(after), find(before)
	d := obs.HistogramValue{Name: name, Count: a.Count - b.Count, Sum: a.Sum - b.Sum}
	for i, bk := range a.Buckets {
		if i < len(b.Buckets) {
			bk.Count -= b.Buckets[i].Count
		}
		d.Buckets = append(d.Buckets, bk)
	}
	return d
}

// histQuantile returns the upper bound of the bucket holding the
// q-quantile observation (0 when the histogram is empty).
func histQuantile(h obs.HistogramValue, q float64) float64 {
	if h.Count == 0 || len(h.Buckets) == 0 {
		return 0
	}
	rank := uint64(q*float64(h.Count-1)) + 1
	var seen uint64
	for _, b := range h.Buckets {
		if seen += b.Count; seen >= rank {
			return b.UpperBound
		}
	}
	return h.Buckets[len(h.Buckets)-1].UpperBound
}

// unitSeconds returns the durations of the units of one kind.
func unitSeconds(units []unitSpan, kinds ...string) []float64 {
	var ds []float64
	for _, u := range units {
		for _, k := range kinds {
			if u.Kind == k {
				ds = append(ds, u.seconds())
			}
		}
	}
	return ds
}

// reportUnits sets <prefix>.units (per operation) and
// <prefix>.parallel_eff: busy unit time over Workers × the wall of the
// calls that ran the units.
func (r *runner) reportUnits(ds []float64, ops int, wall float64, prefix string) {
	r.res.Metrics[prefix+".units"] = float64(len(ds)) / float64(max(ops, 1))
	if wall > 0 {
		r.res.Metrics[prefix+".parallel_eff"] = sum(ds) / (Workers * wall)
	}
}

// cheapCell is the Table VI cell of the minimum-size table6 operation
// and of the traced run's overhead estimate: it takes about 0.1s.
var cheapCell = cellKey("if(a==SUCCESS)", "All\\Delay", core.AttackSingle)

// prepareTable6 times glitcheval -exp table6: one serve.Exec of the
// whole matrix per operation. At minimum size the operation is one cell
// through core.RunTable6Cell. Table VI runs at the published fault-model
// seed whatever the workload seed: its cost has a long tail in that seed
// that would push some runs past 30 seconds (see README.md).
func prepareTable6(r *runner) (func() error, error) {
	if r.cfg.Small {
		return func() error {
			_, _, err := r.measure(func() (func(), error) {
				c, err := table6Cell(cheapCell)
				return func() {
					r.check(c.Total == r.ref.Table6Cells[cheapCell][0], "table6 cell %s: %+v", cheapCell, c)
				}, err
			})
			return err
		}, nil
	}
	spec := serve.Spec{Kind: serve.KindEval, Exp: "table6", Seed: core.DefaultSeed}
	var buf bytes.Buffer
	check := func() {
		r.check(sha(buf.Bytes()) == r.ref.Table6, "table6: output differs from golden")
	}
	o := func() (func(), error) {
		buf.Reset()
		return check, serve.Exec(spec, serve.Env{Workers: Workers, Run: r.newRun()}, &buf)
	}
	return func() error {
		walls, units, err := r.measure(o)
		if err != nil || r.tr == nil {
			return err
		}
		cellS := unitSeconds(units, "table6")
		r.res.Metrics["core.table6_cells"] = float64(len(cellS)) / float64(len(walls))
		r.report("core.table6_cell_s", cellS)
		r.res.Metrics["core.table6_cell_max_s"] = maxOf(cellS)
		return r.table6Overhead()
	}, nil
}

// table6Overhead measures the traced run's overhead on one cheap Table VI
// cell, run alone with and without the CPU profiler, alternately: a
// second, untraced matrix would double the run. The matrix's dozen unit
// spans cost nothing next to its cells.
func (r *runner) table6Overhead() error {
	tr := r.tr
	r.tr = nil
	defer func() { r.tr = tr }()
	cell := func() (func(), error) {
		_, err := table6Cell(cheapCell)
		return nil, err
	}
	var traced, untraced []float64
	for i := 0; i < 3; i++ {
		untraced = append(untraced, r.loop(0, cell)...)
		if err := tr.startProfile(); err != nil {
			return err
		}
		traced = append(traced, r.loop(0, cell)...)
		if _, err := tr.stopProfile(); err != nil {
			return err
		}
	}
	r.overhead(traced, untraced)
	return nil
}

// scanPhases are the experiments a traced scan operation runs one Exec
// each, so each is timed from outside; their bytes concatenate to the
// "all" output.
var scanPhases = []struct{ exp, metric string }{
	{"table1", "glitcher.table1_s"},
	{"table2", "glitcher.table2_s"},
	{"table3", "glitcher.table3_s"},
	{"search", "search.find_s"},
}

// prepareScan times glitchscan -exp all -workers 2: Tables I-III and
// the V-B search for fault-model seed = the workload seed. At minimum
// size the operation is one table.
func prepareScan(r *runner) (func() error, error) {
	seed := r.cfg.Seed
	exps := []string{"all"}
	switch {
	case r.cfg.Small:
		exps = []string{"table1a"}
	case r.cfg.Trace:
		exps = nil
		for _, p := range scanPhases {
			exps = append(exps, p.exp)
		}
	}
	var first []byte
	phases := map[string][]float64{}
	var buf bytes.Buffer
	check := func() {
		if r.golden != nil {
			r.check(sha(buf.Bytes()) == r.golden.Scan, "scan seed %d: output differs from golden", seed)
		} else if first == nil {
			first = append([]byte(nil), buf.Bytes()...)
		} else {
			r.check(bytes.Equal(buf.Bytes(), first), "scan seed %d: output changed between runs", seed)
		}
	}
	o := func() (func(), error) {
		buf.Reset()
		for _, exp := range exps {
			sp := r.tr.span("serve.Exec", map[string]any{"kind": "scan", "exp": exp})
			t := time.Now()
			err := serve.Exec(scanSpec(seed, exp), serve.Env{Workers: Workers, Run: r.newRun()}, &buf)
			phases[exp] = append(phases[exp], time.Since(t).Seconds())
			sp.End()
			if err != nil {
				return nil, err
			}
		}
		return check, nil
	}
	return func() error {
		walls, units, err := r.measure(o)
		if err != nil {
			return err
		}
		if r.tr != nil {
			var bands float64
			for _, p := range scanPhases {
				if len(phases[p.exp]) > 0 {
					r.report(p.metric, phases[p.exp])
				}
				if p.exp != "search" {
					bands += sum(phases[p.exp])
				}
			}
			bands += sum(phases["table1a"])
			r.reportUnits(unitSeconds(units, "table1", "table2", "table3"), len(walls), bands, "glitcher")
			if !r.cfg.Small {
				exps = []string{"all"}
			}
			r.refLoop(walls, o)
		}
		if r.golden == nil && !r.cfg.Small {
			// No golden for this seed: the sharded output must equal a
			// serial run's.
			serial, err := execBare(scanSpec(seed, "all"), 1)
			if err != nil {
				return err
			}
			r.check(bytes.Equal(serial, first), "scan seed %d: Workers=%d output differs from serial", seed, Workers)
		}
		return nil
	}, nil
}

// prepareCampaign times glitchemu -workers 2: the four published
// Figure 2 variants. Campaigns are exhaustive, so the seed changes
// nothing and the seed-1 golden pins every seed. At minimum size the
// flip budget is 2.
func prepareCampaign(r *runner) (func() error, error) {
	k := 16
	if r.cfg.Small {
		k = 2
	}
	spec := campaignSpec(k)
	var buf bytes.Buffer
	check := func() {
		if !r.cfg.Small {
			r.check(sha(buf.Bytes()) == r.ref.Campaign, "campaign: output differs from golden")
		}
	}
	o := func() (func(), error) {
		buf.Reset()
		return check, serve.Exec(spec, serve.Env{Workers: Workers, Run: r.newRun()}, &buf)
	}
	return func() error {
		walls, units, err := r.measure(o)
		if err != nil || r.tr == nil {
			return err
		}
		ds := unitSeconds(units, "campaign")
		r.reportUnits(ds, len(walls), sum(walls), "campaign")
		r.report("campaign.unit_s", ds)
		r.res.Metrics["campaign.unit_max_s"] = maxOf(ds)
		r.res.Metrics["campaign.wall_p90_s"] = Quantile(walls, 0.9)
		r.res.Samples["campaign.wall_p90_s"] = len(walls)
		r.refLoop(walls, o)
		return nil
	}, nil
}

// lintOptions is glitchlint -corpus root -sensitive state -workers 2
// [-cache cache]: the full 8-config defense matrix.
func lintOptions(root, cache string) corpus.Options {
	return corpus.Options{
		Root:      root,
		Analyze:   analyze.Options{Sensitive: []string{"state"}},
		Workers:   Workers,
		CachePath: cache,
	}
}

func writeCorpus(root string, n int, seed uint64) error {
	return difftest.WriteCorpus(root, n, int64(seed))
}

// prepareLint times glitchlint -corpus over a corpus generated from the
// seed: each operation lints it cold (fresh cache), then warm (all hits).
func prepareLint(r *runner) (func() error, error) {
	n := 200
	if r.cfg.Small {
		n = 10
	}
	root := filepath.Join(r.dir, "corpus")
	if err := writeCorpus(root, n, r.cfg.Seed); err != nil {
		return nil, err
	}
	cache := filepath.Join(r.dir, "lint.cache")
	var cold, warm []float64
	var hits, misses int
	var report []byte
	// lint is one glitchlint -corpus -json run: the lint and its report.
	lint := func(what string, times *[]float64) (*corpus.Result, []byte, error) {
		sp := r.tr.span("corpus.Lint", map[string]any{"cache": what})
		defer sp.End()
		t := time.Now()
		defer func() { *times = append(*times, time.Since(t).Seconds()) }()
		res, err := corpus.Lint(context.Background(), lintOptions(root, cache))
		if err != nil {
			return nil, nil, err
		}
		rep, err := res.Report.JSON()
		return res, rep, err
	}
	o := func() (func(), error) {
		if err := os.Remove(cache); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		c, crep, err := lint("cold", &cold)
		if err != nil {
			return nil, err
		}
		w, wrep, err := lint("warm", &warm)
		if err != nil {
			return nil, err
		}
		return func() {
			hits += c.Stats.CacheHits + w.Stats.CacheHits
			misses += c.Stats.CacheMisses + w.Stats.CacheMisses
			t := c.Report.Totals
			r.check(c.Stats.CacheMisses == n && w.Stats.CacheHits == n,
				"lint: cold misses %d, warm hits %d, want %d each", c.Stats.CacheMisses, w.Stats.CacheHits, n)
			r.check(bytes.Equal(crep, wrep), "lint: warm report differs from cold")
			r.check(t.Units == n && t.Builds == 8*n && t.FailedBuilds == 0 && t.Unremoved == 0,
				"lint: totals %+v", t)
			if r.golden != nil {
				r.check(sha(crep) == r.golden.Lint, "lint seed %d: report differs from golden", r.cfg.Seed)
			}
			report = crep
		}, nil
	}
	return func() error {
		walls, _, err := r.measure(o)
		if err != nil {
			return err
		}
		if r.tr != nil {
			r.report("lint.cold_s", cold)
			r.report("lint.warm_s", warm)
			r.res.Metrics["analyze.cache_hits"] = float64(hits) / float64(len(walls))
			r.res.Metrics["analyze.cache_misses"] = float64(misses) / float64(len(walls))
			if hits+misses > 0 {
				r.res.Metrics["analyze.hit_ratio"] = float64(hits) / float64(hits+misses)
			}
			r.res.Metrics["analyze.cache_mb"] = float64(dirBytes(cache)) / mib
			r.refLoop(walls, o)
		}
		if r.golden == nil && report != nil {
			return r.recheckLintUnit(root, report)
		}
		return nil
	}, nil
}

// recheckLintUnit re-lints one seed-chosen unit alone, uncached and
// serially, and compares its builds with the fleet report's.
func (r *runner) recheckLintUnit(root string, report []byte) error {
	var full corpus.Report
	if err := json.Unmarshal(report, &full); err != nil {
		return err
	}
	u := full.Units[r.cfg.Seed%uint64(len(full.Units))]
	src, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(u.Path)))
	if err != nil {
		return err
	}
	one := filepath.Join(r.dir, "one")
	if err := os.MkdirAll(one, 0o777); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(one, filepath.Base(u.Path)), src, 0o644); err != nil {
		return err
	}
	opts := lintOptions(one, "")
	opts.Workers = 1
	res, err := corpus.Lint(context.Background(), opts)
	if err != nil {
		return err
	}
	// Compare the unit as both reports render it.
	data, err := res.Report.JSON()
	if err != nil {
		return err
	}
	var alone corpus.Report
	if err := json.Unmarshal(data, &alone); err != nil {
		return err
	}
	r.check(bytes.Equal(alone.Units[0].Builds, u.Builds), "lint unit %s: alone differs from fleet", u.Path)
	return nil
}
