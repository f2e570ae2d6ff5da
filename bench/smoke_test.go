package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"glitchlab/internal/analyze/corpus"
	"glitchlab/internal/core"
	"glitchlab/internal/glitcher"
	"glitchlab/internal/obs/query"
)

// TestWorkloadsSmoke runs every workload once at its minimum size: one
// Table VI cell, one scan table, k<=2 campaigns, 10 glitchd requests and
// a 10-unit corpus.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range Workloads() {
		t.Run(w, func(t *testing.T) {
			res, err := Run(Config{Workload: w, Seed: 3, Small: true, WorkDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || !res.Correct {
				t.Errorf("fail_ratio %d/%d: %v", res.Failed, res.Attempted, res.Errors)
			}
			for _, m := range []string{"wall_s", "ops_per_s"} {
				if res.Metrics[m] <= 0 {
					t.Errorf("%s = %v", m, res.Metrics[m])
				}
			}
		})
	}
}

// TestTracedSmokeRollsUp checks that a traced run's span file loads with
// the trace analytics glitchtrace uses, with one span per runctl unit.
func TestTracedSmokeRollsUp(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a traced scan")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	res, err := Run(Config{Workload: "scan", Seed: 1, Small: true, Trace: true,
		TraceOut: path, WorkDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("traced smoke failed: %v", res.Errors)
	}
	tr, err := query.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A Table I scan runs one unit per width row for each of three guards.
	want := uint64(3 * (2*glitcher.ParamRange + 1))
	var units uint64
	for _, row := range tr.Rollup() {
		if row.Kind == "span" && strings.HasPrefix(row.Name, "unit.") {
			units += row.Count
		}
	}
	if units != want {
		t.Errorf("trace has %d unit spans, want %d", units, want)
	}
	if got := res.Metrics["glitcher.units"]; got != float64(want) {
		t.Errorf("glitcher.units = %v, want %d", got, want)
	}
	if len(tr.CriticalPath()) == 0 {
		t.Error("trace has no critical path")
	}
	total := 0.0
	for _, l := range Layers {
		total += res.Metrics[l+".cpu_pct"]
	}
	if total < 99.9 || total > 100.1 {
		t.Errorf("cpu_pct shares sum to %v", total)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"glitchlab/internal/emu.(*CPU).Step", "main.main"}, "emu"},
		{[]string{"runtime.mallocgc", "glitchlab/internal/emu.(*CPU).Step"}, "runtime"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "glitchlab/internal/pipeline.(*Machine).run"}, "runtime"},
		{[]string{"math.Exp", "glitchlab/internal/glitcher.(*Model).strength"}, "glitcher"},
		{[]string{"glitchlab/internal/glitcher.runBands[go.shape.struct { glitchlab/internal/pipeline.X }].func1"}, "glitcher"},
		{[]string{"glitchlab/internal/analyze/corpus.lintUnit"}, "analyze"},
		{[]string{"glitchlab/internal/serve/client.(*Client).do"}, "serve"},
		{[]string{"glitchlab/internal/chaos.OS.WriteFile"}, "other"},
		{[]string{"glitchlab/bench.(*runner).loop"}, "other"},
		{[]string{"syscall.Syscall", "net/http.(*persistConn).readLoop", "runtime.goexit"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%q) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// table6CellKeys lists Table VI's cells in evaluation order.
func table6CellKeys() []string {
	var keys []string
	for _, sc := range core.Table6Scenarios() {
		for _, cfg := range core.Table6Configs(sc.Sensitive...) {
			for _, a := range core.Attacks() {
				keys = append(keys, cellKey(sc.Name, cfg.Name(), a))
			}
		}
	}
	return keys
}

// TestGoldensAgree checks what the two golden seeds must share: outputs
// that ignore the seed, and the Table VI grid sizes.
func TestGoldensAgree(t *testing.T) {
	g1, err := LoadGolden(1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGolden(2)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Campaign != g2.Campaign {
		t.Error("campaign goldens differ between seeds")
	}
	if g1.Table6 == g2.Table6 || g1.Scan == g2.Scan || g1.Lint == g2.Lint {
		t.Error("a seeded output's golden is the same for both seeds")
	}
	for _, k := range table6CellKeys() {
		if g1.Table6Cells[k][0] == 0 || g1.Table6Cells[k][0] != g2.Table6Cells[k][0] {
			t.Errorf("table6 cell %s: totals %d and %d", k, g1.Table6Cells[k][0], g2.Table6Cells[k][0])
		}
	}
	for _, g := range []*Golden{g1, g2} {
		if len(g.Serve) != len(servePool(g.Seed, serveBlocks)) {
			t.Errorf("seed %d: %d serve goldens, pool has %d specs", g.Seed, len(g.Serve),
				len(servePool(g.Seed, serveBlocks)))
		}
	}
	for _, spec := range serveGroups(1, 0)[0] {
		k := specKey(spec)
		if g1.Serve[k] == "" || g1.Serve[k] != g2.Serve[k] {
			t.Errorf("serve %s: goldens %q and %q", k, g1.Serve[k], g2.Serve[k])
		}
	}
}

// TestGoldenCrossChecks ties the seed-1 golden to truths recorded
// elsewhere: the committed corpus-lint totals, and the -out files of the
// glitcheval, glitchscan and glitchemu CLIs.
func TestGoldenCrossChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the CLIs, Table VI included")
	}
	g, err := LoadGolden(1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("../internal/analyze/corpus/testdata/expected_totals.json")
	if err != nil {
		t.Fatal(err)
	}
	var want corpus.Totals
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.LintTotals, want) {
		t.Errorf("lint totals %+v, expected_totals.json %+v", g.LintTotals, want)
	}
	g2, err := LoadGolden(2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"glitchemu", []string{"-workers", "2"}, g.Campaign},
		{"glitchscan", []string{"-exp", "all", "-workers", "2"}, g.Scan},
		{"glitcheval", []string{"-exp", "table6"}, g.Table6},
		{"glitchscan", []string{"-exp", "all", "-workers", "2", "-seed", "2"}, g2.Scan},
		{"glitcheval", []string{"-exp", "table6", "-seed", "2"}, g2.Table6},
	} {
		out := filepath.Join(dir, "out.txt")
		args := append([]string{"run", "glitchlab/cmd/" + c.name}, c.args...)
		cmd := exec.Command("go", append(args, "-out", out)...)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%s: %v\n%s", c.name, err, msg)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(data)
		if got := hex.EncodeToString(h[:]); got != c.want {
			t.Errorf("%s %v: -out differs from the golden", c.name, c.args)
		}
	}
	// The daemon pool's seed-independent specs against direct Exec.
	for _, spec := range serveGroups(1, 0)[0] {
		out, err := execBare(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		if sha(out) != g.Serve[specKey(spec)] {
			t.Errorf("serve %s: serial Exec differs from the golden", specKey(spec))
		}
	}
}
