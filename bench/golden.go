package bench

import (
	"bytes"
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"glitchlab/internal/analyze/corpus"
	"glitchlab/internal/core"
	"glitchlab/internal/glitcher"
	"glitchlab/internal/serve"
)

// GoldenSeeds are the workload seeds with committed goldens: 1 is
// core.DefaultSeed, the seed every published number uses; 2 is held out.
var GoldenSeeds = []uint64{1, 2}

//go:embed testdata/golden/*.json
var goldenFS embed.FS

// Golden pins every output one workload seed produces, by sha256 of the
// rendered bytes (the bytes the equivalent CLI writes to its -out file).
type Golden struct {
	Seed uint64 `json:"seed"`
	// Table6 is glitcheval -exp table6 -seed Seed; Table6Cells its counts
	// as [total, successes, detections] by "scenario|config|attack". The
	// table6 workload runs seed 1's; seed 2's pins the held-out fault
	// model for the CLI cross-check.
	Table6      string               `json:"table6"`
	Table6Cells map[string][3]uint64 `json:"table6_cells"`
	// Scan is glitchscan -exp all -seed Seed.
	Scan string `json:"scan"`
	// Campaign is glitchemu: the four published Figure 2 variants, k<=16.
	// It ignores the seed.
	Campaign string `json:"campaign"`
	// Lint is the glitchlint -corpus -json report over the 200-unit
	// corpus difftest.WriteCorpus generates from Seed; LintTotals its
	// totals.
	Lint       string        `json:"lint"`
	LintTotals corpus.Totals `json:"lint_totals"`
	// Serve maps every spec in the seed's glitchd pool (by its canonical
	// JSON, see specKey) to its result body.
	Serve map[string]string `json:"serve"`
}

func goldenName(seed uint64) string { return fmt.Sprintf("seed%d.json", seed) }

// LoadGolden returns the committed golden for seed.
func LoadGolden(seed uint64) (*Golden, error) {
	data, err := goldenFS.ReadFile("testdata/golden/" + goldenName(seed))
	if err != nil {
		return nil, fmt.Errorf("bench: no golden for seed %d", seed)
	}
	var g Golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("bench: golden seed %d: %w", seed, err)
	}
	return &g, nil
}

func cellKey(sc, cfg string, a core.Attack) string {
	return sc + "|" + cfg + "|" + a.String()
}

// specKey is a spec's identity in goldens: its normalized JSON, the
// same canonical form glitchd keys its result cache by.
func specKey(s serve.Spec) string {
	n, err := s.Normalize()
	if err != nil {
		return fmt.Sprintf("invalid %+v", s)
	}
	data, _ := json.Marshal(n)
	return string(data)
}

// execBare normalizes and runs one spec the way the CLIs do, bare, and
// returns its bytes.
func execBare(spec serve.Spec, workers int) ([]byte, error) {
	n, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = serve.Exec(n, serve.Env{Workers: workers}, &buf)
	return buf.Bytes(), err
}

// ComputeGolden regenerates a seed's golden by running every output
// directly, bare, with the workers the benchmark uses. dir is scratch
// space for the lint corpus.
func ComputeGolden(seed uint64, dir string) (*Golden, error) {
	g := &Golden{Seed: seed, Table6Cells: map[string][3]uint64{}, Serve: map[string]string{}}
	var t6 bytes.Buffer
	err := serve.Exec(serve.Spec{Kind: serve.KindEval, Exp: "table6", Seed: seed}, serve.Env{
		Workers: Workers,
		EvalProgress: func(sc, cfg string, a core.Attack, c core.Table6Cell) {
			g.Table6Cells[cellKey(sc, cfg, a)] = [3]uint64{c.Total, c.Successes, c.Detections}
		},
	}, &t6)
	if err != nil {
		return nil, err
	}
	g.Table6 = sha(t6.Bytes())
	out, err := execBare(scanSpec(seed, "all"), Workers)
	if err != nil {
		return nil, err
	}
	g.Scan = sha(out)
	if out, err = execBare(campaignSpec(16), Workers); err != nil {
		return nil, err
	}
	g.Campaign = sha(out)

	root := filepath.Join(dir, "corpus")
	if err := writeCorpus(root, 200, seed); err != nil {
		return nil, err
	}
	res, err := corpus.Lint(context.Background(), lintOptions(root, ""))
	if err != nil {
		return nil, err
	}
	rep, err := res.Report.JSON()
	if err != nil {
		return nil, err
	}
	g.Lint, g.LintTotals = sha(rep), res.Report.Totals

	for _, spec := range servePool(seed, serveBlocks) {
		out, err := execBare(spec, Workers)
		if err != nil {
			return nil, fmt.Errorf("serve pool %s: %w", specKey(spec), err)
		}
		g.Serve[specKey(spec)] = sha(out)
	}
	return g, nil
}

// WriteGolden writes g into dir as seed<N>.json.
func WriteGolden(dir string, g *Golden) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, goldenName(g.Seed)), append(data, '\n'), 0o644)
}

// table6Cell runs one Table VI cell at the published fault-model seed
// directly through core.RunTable6Cell.
func table6Cell(key string) (core.Table6Cell, error) {
	m := glitcher.NewModel(core.DefaultSeed)
	for _, sc := range core.Table6Scenarios() {
		for _, cfg := range core.Table6Configs(sc.Sensitive...) {
			for _, a := range core.Attacks() {
				if cellKey(sc.Name, cfg.Name(), a) == key {
					return core.RunTable6Cell(m, sc, cfg, a, nil)
				}
			}
		}
	}
	return core.Table6Cell{}, fmt.Errorf("bench: no Table VI cell %q", key)
}
