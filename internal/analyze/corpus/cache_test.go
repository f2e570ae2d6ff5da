package corpus_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"glitchlab/internal/analyze"
	"glitchlab/internal/analyze/corpus"
	"glitchlab/internal/difftest"
	"glitchlab/internal/obs"
	"glitchlab/internal/runctl"
)

// cachedOpts builds the standard options for cache tests: a fresh cache
// file next to nothing, serial lint, isolated counters.
func cachedOpts(t *testing.T, dir string) corpus.Options {
	t.Helper()
	return corpus.Options{
		Root:      dir,
		Analyze:   analyze.Options{Sensitive: []string{"state"}},
		CachePath: filepath.Join(t.TempDir(), "lint.cache"),
		Obs:       obs.NewRegistry(),
	}
}

func TestCacheWarmRunByteIdentical(t *testing.T) {
	dir := miniCorpus(t, 8, 21)
	o := cachedOpts(t, dir)

	cold := lint(t, o)
	if cold.Stats.CacheMisses != 8 || cold.Stats.CacheHits != 0 {
		t.Fatalf("cold stats = %+v, want 8 misses / 0 hits", cold.Stats)
	}
	warm := lint(t, o)
	if warm.Stats.CacheHits != 8 || warm.Stats.CacheMisses != 0 {
		t.Fatalf("warm stats = %+v, want 8 hits / 0 misses", warm.Stats)
	}
	if string(reportJSON(t, cold)) != string(reportJSON(t, warm)) {
		t.Fatal("warm report differs from cold report")
	}
}

// TestCacheSingleUnitMutation edits one unit out of eight and asserts the
// warm re-lint recompiles exactly that unit — and still matches a cold
// lint of the mutated corpus byte for byte.
func TestCacheSingleUnitMutation(t *testing.T) {
	dir := miniCorpus(t, 8, 33)
	o := cachedOpts(t, dir)
	lint(t, o)

	victim := filepath.Join(dir, "unit_003.c")
	src, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	// A trailing comment changes the content hash without changing any
	// finding, which is exactly what makes stale-entry bugs visible: the
	// unit must re-lint even though its report is unchanged.
	if err := os.WriteFile(victim, append(src, []byte("// mutated\n")...), 0o644); err != nil {
		t.Fatal(err)
	}

	warm := lint(t, o)
	if warm.Stats.CacheHits != 7 || warm.Stats.CacheMisses != 1 {
		t.Fatalf("post-mutation stats = %+v, want 7 hits / 1 miss", warm.Stats)
	}

	coldOpts := o
	coldOpts.CachePath = ""
	coldOpts.Obs = obs.NewRegistry()
	cold := lint(t, coldOpts)
	if string(reportJSON(t, warm)) != string(reportJSON(t, cold)) {
		t.Fatal("incremental report differs from a cold lint of the mutated corpus")
	}
}

// TestCacheRuleEditInvalidation proves a rule-set edit busts every cached
// entry: the stamp is folded into each unit key, so entries produced under
// the old rules version are unreachable.
func TestCacheRuleEditInvalidation(t *testing.T) {
	dir := miniCorpus(t, 5, 5)
	o := cachedOpts(t, dir)
	lint(t, o)

	edited := o
	edited.RulesVersion = analyze.RulesVersion() + ";GL999:hypothetical:high"
	edited.Obs = obs.NewRegistry()
	res := lint(t, edited)
	if res.Stats.CacheMisses != 5 || res.Stats.CacheHits != 0 {
		t.Fatalf("stats after rule edit = %+v, want 5 misses / 0 hits", res.Stats)
	}

	// The new stamp's entries replaced the old ones; re-linting under the
	// edited rules is now warm again, and reverting to the original rules
	// is cold again — exactly the right entries were busted each time.
	edited.Obs = obs.NewRegistry()
	if res := lint(t, edited); res.Stats.CacheHits != 5 {
		t.Fatalf("second lint under edited rules = %+v, want 5 hits", res.Stats)
	}
	o.Obs = obs.NewRegistry()
	if res := lint(t, o); res.Stats.CacheMisses != 5 {
		t.Fatalf("lint after reverting rules = %+v, want 5 misses", res.Stats)
	}
}

// TestCacheOptionChangeInvalidation: analyzer options are part of the
// stamp too — a different sensitive-variable set must not reuse findings.
func TestCacheOptionChangeInvalidation(t *testing.T) {
	dir := miniCorpus(t, 4, 9)
	o := cachedOpts(t, dir)
	lint(t, o)

	changed := o
	changed.Analyze = analyze.Options{Sensitive: []string{"state", "out"}}
	changed.Configs = nil // re-derive the matrix from the new options
	changed.Obs = obs.NewRegistry()
	if res := lint(t, changed); res.Stats.CacheMisses != 4 {
		t.Fatalf("stats after option change = %+v, want 4 misses", res.Stats)
	}
}

func TestCacheCorruptFileRunsCold(t *testing.T) {
	dir := miniCorpus(t, 3, 13)
	o := cachedOpts(t, dir)
	lint(t, o)
	if err := os.WriteFile(o.CachePath, []byte("{torn write"), 0o644); err != nil {
		t.Fatal(err)
	}
	o.Obs = obs.NewRegistry()
	res := lint(t, o)
	if res.Stats.CacheMisses != 3 {
		t.Fatalf("stats with corrupt cache = %+v, want 3 misses", res.Stats)
	}
	// The rewritten cache must be healthy again.
	o.Obs = obs.NewRegistry()
	if res := lint(t, o); res.Stats.CacheHits != 3 {
		t.Fatalf("stats after cache rewrite = %+v, want 3 hits", res.Stats)
	}
}

// TestCacheKillResume is the crash-safety property: a lint killed after K
// units keeps those K in the cache, and the resumed run re-lints only the
// remainder while producing the byte-identical full report.
func TestCacheKillResume(t *testing.T) {
	const n, killAfter = 10, 4
	dir := miniCorpus(t, n, 41)
	o := cachedOpts(t, dir)

	coldOpts := o
	coldOpts.CachePath = ""
	coldOpts.Obs = obs.NewRegistry()
	cold := lint(t, coldOpts)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed := o
	killed.Progress = func(done, total int) {
		if done == killAfter {
			cancel()
		}
	}
	res, err := corpus.Lint(ctx, killed)
	if !errors.Is(err, runctl.ErrInterrupted) {
		t.Fatalf("interrupted lint error = %v, want runctl.ErrInterrupted", err)
	}
	if res.Report != nil {
		t.Fatal("interrupted lint returned a report")
	}
	if res.Stats.CacheMisses != killAfter {
		t.Fatalf("interrupted stats = %+v, want %d misses", res.Stats, killAfter)
	}

	resumed := o
	resumed.Obs = obs.NewRegistry()
	warm := lint(t, resumed)
	if warm.Stats.CacheHits != killAfter || warm.Stats.CacheMisses != n-killAfter {
		t.Fatalf("resume stats = %+v, want %d hits / %d misses",
			warm.Stats, killAfter, n-killAfter)
	}
	if string(reportJSON(t, warm)) != string(reportJSON(t, cold)) {
		t.Fatal("resumed report differs from an uninterrupted cold lint")
	}
}

// TestProgressPanicQuarantinesUnit: a panicking Progress callback is
// quarantined with its unit instead of crashing the lint or leaving the
// progress lock held for the next unit, and a rerun over the cache it
// left still reproduces the cold report byte for byte.
func TestProgressPanicQuarantinesUnit(t *testing.T) {
	const n = 6
	dir := miniCorpus(t, n, 47)
	o := cachedOpts(t, dir)

	coldOpts := o
	coldOpts.CachePath = ""
	coldOpts.Obs = obs.NewRegistry()
	cold := lint(t, coldOpts)

	poisoned := o
	poisoned.Workers = 1
	calls := 0
	poisoned.Progress = func(done, total int) {
		calls++
		if done == 3 {
			panic("progress callback failed")
		}
	}
	_, err := corpus.Lint(context.Background(), poisoned)
	var qe *runctl.QuarantineError
	if !errors.As(err, &qe) {
		t.Fatalf("lint error = %v, want *runctl.QuarantineError", err)
	}
	if want := "lint unit=" + difftest.CorpusUnitName(2); len(qe.Units) != 1 || qe.Units[0].Unit != want {
		t.Fatalf("quarantined %+v, want only %q", qe.Units, want)
	}
	if calls != n {
		t.Fatalf("progress called %d times, want %d", calls, n)
	}

	rerun := o
	rerun.Obs = obs.NewRegistry()
	if string(reportJSON(t, lint(t, rerun))) != string(reportJSON(t, cold)) {
		t.Fatal("rerun report differs from a cold lint")
	}
}

// TestCacheRenamedUnitHits: the cache key is content-derived, so a renamed
// but unchanged unit is a hit, reported under its new path.
func TestCacheRenamedUnitHits(t *testing.T) {
	dir := miniCorpus(t, 3, 17)
	o := cachedOpts(t, dir)
	lint(t, o)
	if err := os.Rename(filepath.Join(dir, "unit_001.c"),
		filepath.Join(dir, "zz_renamed.c")); err != nil {
		t.Fatal(err)
	}
	o.Obs = obs.NewRegistry()
	res := lint(t, o)
	if res.Stats.CacheHits != 3 {
		t.Fatalf("stats after rename = %+v, want 3 hits", res.Stats)
	}
	if got := res.Report.Units[2].Path; got != "zz_renamed.c" {
		t.Fatalf("renamed unit reported as %q", got)
	}
}
