package core_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"glitchlab/internal/core"
	"glitchlab/internal/glitcher"
	"glitchlab/internal/obs"
	"glitchlab/internal/passes"
	"glitchlab/internal/report"
	"glitchlab/internal/runctl"
)

// table6Cell names one Table VI cell; id is "scenario|config|attack".
type table6Cell struct {
	sc     core.Scenario
	cfg    passes.Config
	attack core.Attack
	id     string
}

// table6Cells lists the matrix's cells in table order.
func table6Cells() []table6Cell {
	var cells []table6Cell
	for _, sc := range core.Table6Scenarios() {
		for _, cfg := range core.Table6Configs(sc.Sensitive...) {
			for _, a := range core.Attacks() {
				cells = append(cells, table6Cell{sc, cfg, a, sc.Name + "|" + cfg.Name() + "|" + a.String()})
			}
		}
	}
	return cells
}

// TestTable6PoolMatchesSerial runs the sharded Table VI pool over its
// three cheapest cells, with the other nine pre-completed through a
// checkpoint, and requires every cell to match: the three computed ones a
// serial RunTable6Cell, the nine checkpointed ones their records. The
// slice is cheap enough to keep under -short and the race detector.
func TestTable6PoolMatchesSerial(t *testing.T) {
	model := glitcher.NewModel(core.DefaultSeed)
	cheap := []string{
		"if(a==SUCCESS)|All|Single",
		"if(a==SUCCESS)|All\\Delay|Single",
		"if(a==SUCCESS)|All\\Delay|10 Cycles",
	}
	dir := t.TempDir()
	manifest := runctl.Manifest{Tool: "core-test", ConfigHash: "sha256:t6", Seed: core.DefaultSeed}
	pre, err := runctl.Open(context.Background(), dir, manifest, false)
	if err != nil {
		t.Fatal(err)
	}
	cells := table6Cells()
	want := map[string]core.Table6Cell{}
	for i, c := range cells {
		if slices.Contains(cheap, c.id) {
			cell, err := core.RunTable6Cell(model, c.sc, c.cfg, c.attack, nil)
			if err != nil {
				t.Fatal(err)
			}
			want[c.id] = cell
			continue
		}
		// A marker only the checkpoint can have supplied.
		want[c.id] = core.Table6Cell{Total: uint64(i + 1), Successes: 1, Detections: 2}
		key := fmt.Sprintf("table6 scenario=%s config=%s attack=%s", c.sc.Name, c.cfg.Name(), c.attack)
		if err := pre.Complete(key, want[c.id]); err != nil {
			t.Fatal(err)
		}
	}
	if err := pre.Close(); err != nil {
		t.Fatal(err)
	}

	rn, err := runctl.Open(context.Background(), dir, manifest, true)
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Close()
	var mu sync.Mutex
	var ran []string
	rn.Hooks.BeforeUnit = func(unit string) {
		mu.Lock()
		ran = append(ran, unit)
		mu.Unlock()
	}
	var seen []string
	res, err := core.RunTable6(model, 3, func(sc, cfg string, a core.Attack, cell core.Table6Cell) {
		id := sc + "|" + cfg + "|" + a.String()
		seen = append(seen, id)
		if cell != want[id] {
			t.Errorf("%s: progress reported %+v, want %+v", id, cell, want[id])
		}
	}, rn)
	if err != nil {
		t.Fatal(err)
	}
	if len(ran) != len(cheap) {
		t.Errorf("pool ran %d cells %q, want the %d cheap ones", len(ran), ran, len(cheap))
	}
	ids := make([]string, len(cells))
	for i, c := range cells {
		ids[i] = c.id
	}
	if !slices.Equal(seen, ids) {
		t.Errorf("progress order %q, want table order %q", seen, ids)
	}
	for _, c := range cells {
		if got := res.Cells[c.sc.Name][c.cfg.Name()][c.attack]; got != want[c.id] {
			t.Errorf("%s = %+v, want %+v", c.id, got, want[c.id])
		}
	}
}

// TestTable6MatchesResults renders Table VI from the sharded matrix
// at three workers, and from a run killed after its fifth completed cell
// and resumed at two, and requires both to match the Table VI block of
// the committed results/section7.txt byte for byte, with per-cell
// progress in table order.
func TestTable6MatchesResults(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table VI matrix")
	}
	data, err := os.ReadFile("../../results/section7.txt")
	if err != nil {
		t.Fatal(err)
	}
	results := string(data)
	start, end := strings.Index(results, "Table VI:"), strings.Index(results, "Table VII:")
	if start < 0 || end < start {
		t.Fatal("results/section7.txt holds no Table VI block")
	}
	want := results[start:end]
	var order []string
	for _, c := range table6Cells() {
		order = append(order, c.id)
	}
	// run returns the rendered table (as glitcheval prints it) and the
	// positions in table order of the cells progress reported.
	run := func(workers int, rn *runctl.Run) (string, []int, error) {
		var seen []int
		res, err := core.RunTable6(glitcher.NewModel(core.DefaultSeed), workers,
			func(sc, cfg string, a core.Attack, _ core.Table6Cell) {
				seen = append(seen, slices.Index(order, sc+"|"+cfg+"|"+a.String()))
			}, rn)
		if err != nil {
			return "", seen, err
		}
		return report.Table6(res) + "\n", seen, nil
	}
	inOrder := func(seen []int) bool {
		for i, pos := range seen {
			if pos < 0 || i > 0 && pos <= seen[i-1] {
				return false
			}
		}
		return true
	}

	got, seen, err := run(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Table VI at 3 workers differs from results/section7.txt:\n%s\nwant:\n%s", got, want)
	}
	if len(seen) != len(order) || !inOrder(seen) {
		t.Errorf("progress reported cells %v, want all %d in table order", seen, len(order))
	}

	dir := t.TempDir()
	manifest := runctl.Manifest{Tool: "core-test", ConfigHash: "sha256:t6", Seed: core.DefaultSeed}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rn, err := runctl.Open(ctx, dir, manifest, false)
	if err != nil {
		t.Fatal(err)
	}
	var completed atomic.Int64
	rn.Hooks.AfterUnit = func(string) {
		if completed.Add(1) == 5 {
			cancel()
		}
	}
	_, seen, runErr := run(3, rn)
	if err := rn.Close(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(runErr, runctl.ErrInterrupted) {
		t.Fatalf("killed matrix returned %v, want ErrInterrupted", runErr)
	}
	if len(seen) < 5 || !inOrder(seen) {
		t.Errorf("killed run reported cells %v, want at least 5 in table order", seen)
	}

	rn2, err := runctl.Open(context.Background(), dir, manifest, true)
	if err != nil {
		t.Fatal(err)
	}
	got, seen, err = run(2, rn2)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if err := rn2.Close(); err != nil {
		t.Fatal(err)
	}
	if rn2.Loaded() < 5 {
		t.Errorf("resume loaded %d cells, want at least 5", rn2.Loaded())
	}
	if got != want {
		t.Fatal("Table VI from the resumed matrix is not byte-identical to results/section7.txt")
	}
	if len(seen) != len(order) || !inOrder(seen) {
		t.Errorf("resumed run reported cells %v, want all %d in table order", seen, len(order))
	}
}

// TestTable6ObservedCounters runs the Table VI pool observed over its
// three cheapest cells, with the other nine restored from a checkpoint
// that carries their observations, plus one cheap cell checkpointed
// without one. The unobserved cell must rerun; the observed cells must
// count the same as unobserved ones, split Total into emulated and
// fast-path-skipped attempts on separate branches, and sum into the
// table6.* counters at emit.
func TestTable6ObservedCounters(t *testing.T) {
	cheap := []string{
		"if(a==SUCCESS)|All|Single",
		"if(a==SUCCESS)|All\\Delay|Single",
		"if(a==SUCCESS)|All\\Delay|10 Cycles",
	}
	dir := t.TempDir()
	manifest := runctl.Manifest{Tool: "core-test", ConfigHash: "sha256:t6obs", Seed: core.DefaultSeed}
	pre, err := runctl.Open(context.Background(), dir, manifest, false)
	if err != nil {
		t.Fatal(err)
	}
	bare := glitcher.NewModel(core.DefaultSeed)
	cells := table6Cells()
	want := map[string]core.Table6Cell{}
	for i, c := range cells {
		key := fmt.Sprintf("table6 scenario=%s config=%s attack=%s", c.sc.Name, c.cfg.Name(), c.attack)
		if slices.Contains(cheap, c.id) {
			cell, err := core.RunTable6Cell(bare, c.sc, c.cfg, c.attack, nil)
			if err != nil {
				t.Fatal(err)
			}
			if cell.Obs != nil {
				t.Fatalf("%s: an unobserved cell carries %+v", c.id, cell.Obs)
			}
			want[c.id] = cell
			if c.id == cheap[0] { // a record without an observation
				if err := pre.Complete(key, cell); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		n := uint64(i + 1)
		want[c.id] = core.Table6Cell{Total: 10 * n, Successes: 1, Detections: 2,
			Obs: &core.Table6Obs{Executed: 3 * n, FastPathSkipped: 7 * n, Steps: 100 * n}}
		if err := pre.Complete(key, want[c.id]); err != nil {
			t.Fatal(err)
		}
	}
	if err := pre.Close(); err != nil {
		t.Fatal(err)
	}

	rn, err := runctl.Open(context.Background(), dir, manifest, true)
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Close()
	var mu sync.Mutex
	var ran []string
	rn.Hooks.BeforeUnit = func(unit string) {
		mu.Lock()
		ran = append(ran, unit)
		mu.Unlock()
	}
	reg := obs.NewRegistry()
	model := glitcher.NewModel(core.DefaultSeed)
	model.Obs = glitcher.NewObs(reg, nil)
	res, err := core.RunTable6(model, 2, nil, rn)
	if err != nil {
		t.Fatal(err)
	}
	if len(ran) != len(cheap) {
		t.Errorf("pool ran %d cells %q, want the %d cheap ones", len(ran), ran, len(cheap))
	}
	var attempts, executed, skipped, steps uint64
	for _, c := range cells {
		got := res.Cells[c.sc.Name][c.cfg.Name()][c.attack]
		w := want[c.id]
		if got.Total != w.Total || got.Successes != w.Successes || got.Detections != w.Detections {
			t.Errorf("%s = %+v, want the counts of %+v", c.id, got, w)
		}
		if got.Obs == nil {
			t.Fatalf("%s: observed cell carries no observation", c.id)
		}
		if got.Obs.Executed+got.Obs.FastPathSkipped != got.Total {
			t.Errorf("%s: executed %d + skipped %d != total %d",
				c.id, got.Obs.Executed, got.Obs.FastPathSkipped, got.Total)
		}
		if slices.Contains(cheap, c.id) && (got.Obs.Executed == 0 || got.Obs.FastPathSkipped == 0 || got.Obs.Steps == 0) {
			t.Errorf("%s: computed cell observed %+v, want emulated and fast-path attempts, and steps", c.id, got.Obs)
		}
		attempts += got.Total
		executed += got.Obs.Executed
		skipped += got.Obs.FastPathSkipped
		steps += got.Obs.Steps
	}
	for name, want := range map[string]uint64{
		"table6.attempts_total":          attempts,
		"table6.executed_total":          executed,
		"table6.fast_path_skipped_total": skipped,
		"table6.steps_retired_total":     steps,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
