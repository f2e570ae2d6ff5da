package report

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"glitchlab/internal/core"
	"glitchlab/internal/glitcher"
	"glitchlab/internal/mutate"
	"glitchlab/internal/runctl"
)

// killAfterUnits opens a fresh checkpoint in dir whose context is
// cancelled once n work units have completed.
func killAfterUnits(t *testing.T, dir string, m runctl.Manifest, n int64) *runctl.Run {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	rn, err := runctl.Open(ctx, dir, m, false)
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Int64
	rn.Hooks.AfterUnit = func(string) {
		if done.Add(1) == n {
			cancel()
		}
	}
	return rn
}

// TestFigure2ReportByteIdenticalAfterResume renders the Figure 2 report
// from a killed-then-resumed campaign and requires it to be byte-identical
// to the report of an uninterrupted serial run.
func TestFigure2ReportByteIdenticalAfterResume(t *testing.T) {
	const maxFlips = 3
	baseline, err := core.RunFigure2(mutate.AND, false, maxFlips, 1, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := Figure2(baseline, mutate.AND, false)

	dir := t.TempDir()
	manifest := runctl.Manifest{Tool: "report-test", ConfigHash: "sha256:f2", Seed: 0}
	rn := killAfterUnits(t, dir, manifest, 9)
	_, runErr := core.RunFigure2(mutate.AND, false, maxFlips, 3, false, nil, rn)
	if err := rn.Close(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(runErr, runctl.ErrInterrupted) {
		t.Fatalf("killed campaign returned %v, want ErrInterrupted", runErr)
	}

	rn2, err := runctl.Open(context.Background(), dir, manifest, true)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := core.RunFigure2(mutate.AND, false, maxFlips, 2, false, nil, rn2)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if err := rn2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := Figure2(resumed, mutate.AND, false); got != want {
		t.Fatal("Figure 2 report from resumed campaign is not byte-identical to the uninterrupted run")
	}
}

// TestTable2ReportByteIdenticalAfterResume does the same for a Table II
// scan: kill a sharded scan mid-grid, resume, and require the rendered
// table to match the uninterrupted serial scan byte for byte.
func TestTable2ReportByteIdenticalAfterResume(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid scan")
	}
	m := glitcher.NewModel(7)
	serial, err := m.RunTable2(glitcher.GuardWhileA, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := Table2([]*glitcher.Table2Result{serial})

	dir := t.TempDir()
	manifest := runctl.Manifest{Tool: "report-test", ConfigHash: "sha256:t2", Seed: 7}
	rn := killAfterUnits(t, dir, manifest, 25)
	_, runErr := m.RunTable2(glitcher.GuardWhileA, 4, rn)
	if err := rn.Close(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(runErr, runctl.ErrInterrupted) {
		t.Fatalf("killed scan returned %v, want ErrInterrupted", runErr)
	}

	rn2, err := runctl.Open(context.Background(), dir, manifest, true)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := m.RunTable2(glitcher.GuardWhileA, 2, rn2)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if err := rn2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := Table2([]*glitcher.Table2Result{resumed}); got != want {
		t.Fatal("Table II report from resumed scan is not byte-identical to the uninterrupted run")
	}
}
