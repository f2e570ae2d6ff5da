package report

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"glitchlab/internal/campaign"
	"glitchlab/internal/core"
	"glitchlab/internal/mutate"
	"glitchlab/internal/obs"
	"glitchlab/internal/obs/query"
)

// traceCampaign runs one instrumented AND k=0..2 campaign with a
// constant tracer clock (every t_us and dur_us is zero, removing the
// only schedule-dependent part of a trace record) and full sampling, and
// returns the raw and loaded trace plus the run's metrics snapshot.
func traceCampaign(t *testing.T, workers int) ([]byte, *query.Trace, obs.Snapshot) {
	t.Helper()
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	tr := obs.NewTracer(&buf)
	tr.SetClock(func() time.Time { return time.Unix(1700000000, 0) })
	tr.SetSampling(1)
	tr.SetFailureRing(4096) // larger than the campaign's failure count
	o := campaign.NewObserver(reg, tr)
	if _, err := core.RunFigure2(mutate.AND, false, 2, workers, false, o, nil); err != nil {
		t.Fatal(err)
	}
	tr.Close()
	raw := bytes.Clone(buf.Bytes())
	trace, err := query.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return raw, trace, reg.Snapshot()
}

// TestTraceAnalyticsSerialParallelIdentical pins the glitchtrace
// analytics to the campaign engine's golden-equivalence contract: the
// same seeded campaign run serially and worker-sharded must write
// byte-identical traces (units merge their records in unit order), and
// so byte-identical rollup and critical-path renderings, an identical
// failure count, and metrics snapshots whose diff is empty.
func TestTraceAnalyticsSerialParallelIdentical(t *testing.T) {
	serialRaw, serialTrace, serialSnap := traceCampaign(t, 1)
	parallelRaw, parallelTrace, parallelSnap := traceCampaign(t, 4)
	if !bytes.Equal(serialRaw, parallelRaw) {
		t.Errorf("trace bytes differ serial vs workers:\n--- serial ---\n%s--- parallel ---\n%s",
			serialRaw, parallelRaw)
	}

	serialRollup := TraceRollup(serialTrace.Rollup(), serialTrace.Torn)
	parallelRollup := TraceRollup(parallelTrace.Rollup(), parallelTrace.Torn)
	if serialRollup != parallelRollup {
		t.Errorf("rollup differs serial vs workers:\n--- serial ---\n%s--- parallel ---\n%s",
			serialRollup, parallelRollup)
	}

	serialPath := TraceCriticalPath(serialTrace.CriticalPath())
	parallelPath := TraceCriticalPath(parallelTrace.CriticalPath())
	if serialPath != parallelPath {
		t.Errorf("critical path differs serial vs workers:\n--- serial ---\n%s--- parallel ---\n%s",
			serialPath, parallelPath)
	}

	if s, p := len(serialTrace.CorrelateFailures()), len(parallelTrace.CorrelateFailures()); s != p {
		t.Errorf("failure count differs: serial %d, parallel %d", s, p)
	}

	d := obs.SnapshotDiff(serialSnap, parallelSnap)
	if changed := d.Changed(); len(changed) != 0 {
		t.Errorf("metrics snapshots differ serial vs workers: %+v", changed)
	}

	// Golden-pin the rollup and critical path so the renderings (and the
	// campaign's record population) cannot drift silently.
	checkGolden(t, "tracerollup.golden", serialRollup)
	checkGolden(t, "tracecritical.golden", serialPath)
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted:\n--- got ---\n%s--- want ---\n%s(run with -update to regenerate)",
			name, got, want)
	}
}
