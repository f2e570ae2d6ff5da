// Package corpus is fleet glitchlint: it walks a directory tree of mini-C
// firmware units, compiles and lints every unit under a matrix of defense
// configurations, and aggregates one deterministic JSON report — the
// "secure-boot firmware CI" surface the single-program linter cannot
// serve. Re-lints are incremental: per-unit findings are cached under a
// content-hash key (see cache.go), so touching one file out of hundreds
// re-lints exactly that file.
//
// Determinism is the load-bearing contract: the same corpus produces
// byte-identical reports whether the lint ran cold or from a warm cache,
// on one worker or many. Cache hit/miss statistics therefore live outside
// the report (Stats, obs counters), never inside it.
package corpus

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"glitchlab/internal/analyze"
	"glitchlab/internal/core"
	"glitchlab/internal/obs"
	"glitchlab/internal/passes"
	"glitchlab/internal/runctl"
)

// Options configures one fleet lint.
type Options struct {
	// Root is the directory walked (recursively) for *.c units.
	Root string
	// Configs is the defense matrix each unit is linted under. Default:
	// the paper's full evaluation matrix, core.DefenseConfigs(Sensitive).
	Configs []passes.Config
	// Analyze tunes the per-unit analyzer (sensitive globals, disabled
	// rules, …) exactly as the single-program linter does.
	Analyze analyze.Options
	// Workers shards units across goroutines; <= 1 runs one worker.
	// Output is byte-identical at any worker count.
	Workers int
	// CachePath persists per-unit findings across runs; "" disables the
	// cache.
	CachePath string
	// RulesVersion overrides the rule-set version folded into the cache
	// stamp. Default analyze.RulesVersion(); tests use it to prove a rule
	// edit invalidates cached entries.
	RulesVersion string
	// Progress, when set, is called after each unit completes (under a
	// lock: it may be called from worker goroutines, but never
	// concurrently).
	Progress func(done, total int)
	// Obs receives the corpus counters; default obs.Default.
	Obs *obs.Registry
}

// withDefaults resolves unset options.
func (o Options) withDefaults() Options {
	if o.Configs == nil {
		o.Configs = core.DefenseConfigs(o.Analyze.Sensitive...)
	}
	if o.RulesVersion == "" {
		o.RulesVersion = analyze.RulesVersion()
	}
	if o.Obs == nil {
		o.Obs = obs.Default
	}
	return o
}

// BuildReport is one unit linted under one defense configuration.
type BuildReport struct {
	Config string `json:"config"`
	// Error records a build or analysis failure; Findings is empty then.
	Error string `json:"error,omitempty"`
	// Unremoved counts findings an enabled defense pass should have
	// removed — each one a defense bug (see analyze.Unremoved).
	Unremoved int               `json:"unremoved"`
	Findings  []analyze.Finding `json:"findings"`
}

// BuildIssue is one build worth surfacing in the fleet summary: it failed,
// or an enabled defense pass left findings it owns.
type BuildIssue struct {
	Config    string `json:"config"`
	Error     string `json:"error,omitempty"`
	Unremoved int    `json:"unremoved,omitempty"`
}

// UnitSummary is a unit's precomputed aggregate, cached alongside the raw
// builds so totals and rendering never decode per-finding detail.
type UnitSummary struct {
	Builds       int            `json:"builds"`
	FailedBuilds int            `json:"failed_builds"`
	Findings     int            `json:"findings"`
	Unremoved    int            `json:"unremoved"`
	ByRule       map[string]int `json:"by_rule,omitempty"`
	BySeverity   map[string]int `json:"by_severity,omitempty"`
	Issues       []BuildIssue   `json:"issues,omitempty"`
}

// UnitReport is one firmware unit's lint across the whole defense matrix.
// Builds holds the marshaled []BuildReport verbatim — on a warm run it is
// spliced from the cache byte-for-byte, which is both why warm reports are
// guaranteed identical to cold ones and why warm lints skip finding-level
// decoding entirely. Use DecodeBuilds for typed access.
type UnitReport struct {
	// Path is slash-separated and relative to the corpus root.
	Path string `json:"path"`
	// Hash is the hex SHA-256 of the unit source.
	Hash   string          `json:"hash"`
	Builds json.RawMessage `json:"builds"`
	// Summary feeds Totals and the human renderer; the JSON schema keeps
	// per-unit aggregates out (they are derivable from builds).
	Summary UnitSummary `json:"-"`
}

// DecodeBuilds decodes the unit's per-configuration build reports.
func (u *UnitReport) DecodeBuilds() ([]BuildReport, error) {
	var builds []BuildReport
	if err := json.Unmarshal(u.Builds, &builds); err != nil {
		return nil, fmt.Errorf("corpus: unit %s: %w", u.Path, err)
	}
	return builds, nil
}

// Totals is the corpus-level rollup.
type Totals struct {
	Units        int `json:"units"`
	Builds       int `json:"builds"`
	FailedBuilds int `json:"failed_builds"`
	Findings     int `json:"findings"`
	Unremoved    int `json:"unremoved"`
	// ByRule counts findings per rule ID across every (unit, config)
	// build; BySeverity rolls the same findings up by severity name.
	ByRule     map[string]int `json:"by_rule"`
	BySeverity map[string]int `json:"by_severity"`
}

// Report is the deterministic fleet-lint artifact. Two runs over the same
// corpus with the same options render byte-identical JSON regardless of
// cache state or worker count.
type Report struct {
	// Stamp identifies the rule-set version and option matrix the
	// findings were produced under (the cache stamp, see Stamp).
	Stamp  string       `json:"stamp"`
	Units  []UnitReport `json:"units"`
	Totals Totals       `json:"totals"`
}

// Stats describes how a lint executed. It is intentionally not part of
// Report: cold and warm runs differ here and nowhere else.
type Stats struct {
	Units        int
	CacheHits    int
	CacheMisses  int
	FailedBuilds int
}

// String renders the stats line the CLI prints to stderr.
func (s Stats) String() string {
	return fmt.Sprintf("units=%d cache_hits=%d cache_misses=%d failed_builds=%d",
		s.Units, s.CacheHits, s.CacheMisses, s.FailedBuilds)
}

// Result pairs the report with its execution stats.
type Result struct {
	Report *Report
	Stats  Stats
}

// Lint walks the corpus and lints every unit on a runctl.Pool, consulting
// and updating the cache when one is configured. On context cancellation
// the cache is flushed with every unit completed so far and the error
// wraps runctl.ErrInterrupted — a re-run with the same cache resumes where
// the lint stopped and still produces the byte-identical full report. A
// unit that panics is quarantined: the other units still complete and are
// cached, and the error is a *runctl.QuarantineError naming the unit.
func Lint(ctx context.Context, o Options) (*Result, error) {
	o = o.withDefaults()
	units, err := walk(o.Root)
	if err != nil {
		return nil, err
	}
	if len(units) == 0 {
		return nil, fmt.Errorf("corpus: no *.c units under %s", o.Root)
	}
	stamp := Stamp(o.RulesVersion, o.Configs, o.Analyze)
	cached := loadCache(o.CachePath, stamp)

	reports := make([]*UnitReport, len(units))
	keys := make([]string, len(units))
	entries := make([]*cacheEntry, len(units))
	var hits, misses atomic.Int64
	var progressMu sync.Mutex
	done := 0 // units completed, guarded by progressMu

	lintOne := func(i int) (struct{}, error) {
		data, err := os.ReadFile(filepath.Join(o.Root, filepath.FromSlash(units[i])))
		if err != nil {
			return struct{}{}, fmt.Errorf("corpus: %w", err)
		}
		key := unitKey(stamp, data)
		keys[i] = key
		entry, ok := cached[key]
		if ok {
			hits.Add(1)
		} else {
			misses.Add(1)
			entry, err = lintUnit(string(data), o.Configs, o.Analyze)
			if err != nil {
				return struct{}{}, err
			}
		}
		entries[i] = entry
		reports[i] = &UnitReport{
			Path: units[i], Hash: entry.Hash,
			Builds: entry.Builds, Summary: entry.Summary,
		}
		if o.Progress != nil {
			// Deferred, so a panicking callback (quarantined with its
			// unit) cannot leave the lock held for the next unit.
			progressMu.Lock()
			defer progressMu.Unlock()
			done++
			o.Progress(done, len(units))
		}
		return struct{}{}, nil
	}

	unitKeys := make([]string, len(units))
	for i, u := range units {
		unitKeys[i] = "lint unit=" + u
	}
	rn := runctl.New(ctx)
	lintErr := runctl.Pool[struct{}]{
		Keys:    unitKeys,
		Workers: o.Workers,
		Start: func() (func(int) (struct{}, error), func(), error) {
			return lintOne, nil, nil
		},
	}.Run(rn)
	if lintErr == nil {
		lintErr = rn.FinishErr()
	}

	// Persist what completed — misses just computed and hits still in
	// use — pruning entries for units that vanished or changed. An
	// interrupted run keeps its partial progress this way. A fully-warm
	// run with nothing pruned skips the rewrite: re-serializing an
	// unchanged multi-megabyte cache would dominate warm lint time.
	if o.CachePath != "" {
		keep := make(map[string]*cacheEntry, len(units))
		for i, e := range entries {
			if e != nil {
				keep[keys[i]] = e
			}
		}
		if lintErr != nil {
			// Interrupted: the keys of unprocessed units were never
			// computed, so pruning would evict entries that are still
			// valid. Merge the partial progress into the old cache.
			for k, e := range cached {
				if _, ok := keep[k]; !ok {
					keep[k] = e
				}
			}
		}
		if misses.Load() > 0 || len(keep) != len(cached) {
			if err := saveCache(o.CachePath, stamp, keep); err != nil && lintErr == nil {
				lintErr = err
			}
		}
	}

	stats := Stats{
		Units:       len(units),
		CacheHits:   int(hits.Load()),
		CacheMisses: int(misses.Load()),
	}
	if lintErr != nil {
		return &Result{Stats: stats}, lintErr
	}

	rep := &Report{Stamp: stamp, Units: make([]UnitReport, len(units))}
	for i, ur := range reports {
		rep.Units[i] = *ur
	}
	rep.Totals = totals(rep.Units)
	stats.FailedBuilds = rep.Totals.FailedBuilds
	observe(o.Obs, rep, stats)
	return &Result{Report: rep, Stats: stats}, nil
}

// walk collects the corpus units: every *.c file under root, as sorted
// slash-separated relative paths.
func walk(root string) ([]string, error) {
	var units []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(d.Name(), ".c") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		units = append(units, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("corpus: walk %s: %w", root, err)
	}
	sort.Strings(units)
	return units, nil
}

// lintUnit compiles and analyzes one unit under every configuration of
// the matrix, returning the cache entry: the marshaled build reports plus
// their aggregate summary.
func lintUnit(src string, cfgs []passes.Config, aopts analyze.Options) (*cacheEntry, error) {
	var builds []BuildReport
	for _, cfg := range cfgs {
		br := BuildReport{Config: cfg.Name(), Findings: []analyze.Finding{}}
		res, err := core.Compile(src, cfg)
		if err != nil {
			br.Error = err.Error()
		} else {
			ares, err := analyze.Run(
				&analyze.Target{Module: res.Module, Image: res.Image}, aopts)
			if err != nil {
				br.Error = err.Error()
			} else {
				if ares.Findings != nil {
					br.Findings = ares.Findings
				}
				br.Unremoved = len(analyze.Unremoved(ares, cfg))
			}
		}
		builds = append(builds, br)
	}
	raw, err := json.Marshal(builds)
	if err != nil {
		return nil, fmt.Errorf("corpus: encode builds: %w", err)
	}
	return &cacheEntry{
		Hash: sourceHash(src), Summary: summarize(builds), Builds: raw,
	}, nil
}

// summarize aggregates one unit's builds into its summary.
func summarize(builds []BuildReport) UnitSummary {
	s := UnitSummary{Builds: len(builds)}
	for _, b := range builds {
		if b.Error != "" {
			s.FailedBuilds++
		}
		s.Findings += len(b.Findings)
		s.Unremoved += b.Unremoved
		for _, f := range b.Findings {
			if s.ByRule == nil {
				s.ByRule = map[string]int{}
				s.BySeverity = map[string]int{}
			}
			s.ByRule[f.Rule]++
			s.BySeverity[f.Severity.String()]++
		}
		if b.Error != "" || b.Unremoved > 0 {
			s.Issues = append(s.Issues, BuildIssue{
				Config: b.Config, Error: b.Error, Unremoved: b.Unremoved,
			})
		}
	}
	return s
}

// totals aggregates the corpus rollup from the per-unit summaries.
func totals(units []UnitReport) Totals {
	t := Totals{
		Units:      len(units),
		ByRule:     map[string]int{},
		BySeverity: map[string]int{},
	}
	for _, u := range units {
		s := u.Summary
		t.Builds += s.Builds
		t.FailedBuilds += s.FailedBuilds
		t.Findings += s.Findings
		t.Unremoved += s.Unremoved
		for rule, n := range s.ByRule {
			t.ByRule[rule] += n
		}
		for sev, n := range s.BySeverity {
			t.BySeverity[sev] += n
		}
	}
	return t
}

// observe publishes the run's counters: units linted, cache traffic, and
// per-rule finding totals.
func observe(reg *obs.Registry, rep *Report, stats Stats) {
	reg.Counter("corpus.units_total").Add(uint64(stats.Units))
	reg.Counter("corpus.units_linted_total").Add(uint64(stats.CacheMisses))
	reg.Counter("corpus.cache_hits_total").Add(uint64(stats.CacheHits))
	reg.Counter("corpus.cache_misses_total").Add(uint64(stats.CacheMisses))
	reg.Counter("corpus.builds_total").Add(uint64(rep.Totals.Builds))
	reg.Counter("corpus.failed_builds_total").Add(uint64(rep.Totals.FailedBuilds))
	reg.Counter("corpus.findings_total").Add(uint64(rep.Totals.Findings))
	for rule, n := range rep.Totals.ByRule {
		reg.Counter("corpus.findings." + rule + "_total").Add(uint64(n))
	}
}
