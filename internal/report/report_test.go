package report

import (
	"strings"
	"testing"

	"glitchlab/internal/campaign"
	"glitchlab/internal/core"
	"glitchlab/internal/glitcher"
	"glitchlab/internal/mutate"
	"glitchlab/internal/search"
)

func TestFigure2Rendering(t *testing.T) {
	results, err := core.RunFigure2(mutate.AND, false, 1, 1, false, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := Figure2(results, mutate.AND, false)
	for _, want := range []string{
		"Figure 2", "and model", "beq", "bne", "Success", "Bad Fetch",
		"No Effect", "unmodified",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure2 output missing %q", want)
		}
	}
	zi := Figure2(results, mutate.AND, true)
	if !strings.Contains(zi, "0x0000 invalid") {
		t.Error("zero-invalid variant not labeled")
	}
}

func TestTable1Rendering(t *testing.T) {
	// A tiny synthetic result keeps the test fast and the layout pinned.
	r := &glitcher.Table1Result{
		Guard:     glitcher.GuardWhileNotA,
		Attempts:  78408,
		Successes: 585,
	}
	for c := 0; c < glitcher.LoopCycles; c++ {
		cc := glitcher.CycleCount{Cycle: c, Instruction: "MOV R3, SP",
			Attempts: 9801, Values: map[uint32]uint64{}}
		if c == 4 {
			cc.Successes = 585
			cc.Values[0x55] = 500
			cc.Values[0x20003FE8] = 85
		}
		r.PerCycle = append(r.PerCycle, cc)
	}
	out := Table1(r)
	for _, want := range []string{
		"while(!a)", "R3", "0x55", "0x20003fe8", "585/78408", "0.746%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable2And3Rendering(t *testing.T) {
	t2 := []*glitcher.Table2Result{{
		Guard:    glitcher.GuardWhileNotA,
		Partial:  make([]uint64, glitcher.LoopCycles),
		Full:     make([]uint64, glitcher.LoopCycles),
		Attempts: 78408,
	}}
	t2[0].Partial[3] = 124
	t2[0].Full[3] = 87
	out := Table2(t2)
	for _, want := range []string{"Partial", "Full", "124", "87", "Total"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 output missing %q", want)
		}
	}

	t3 := []*glitcher.Table3Result{{
		Guard:     glitcher.GuardWhileA,
		Cycles:    []int{10, 11},
		Successes: []uint64{96, 140},
		Attempts:  2 * glitcher.GridSize,
	}}
	out3 := Table3(t3)
	for _, want := range []string{"while(a)", "0-10", "96", "140"} {
		if !strings.Contains(out3, want) {
			t.Errorf("Table3 output missing %q", want)
		}
	}
}

func TestSearchRendering(t *testing.T) {
	r := &search.Result{
		Guard:  glitcher.GuardWhileA,
		Found:  true,
		Params: glitcher.Params{Width: -46, Offset: -39},
		Cycle:  6,
	}
	out := Search(r)
	for _, want := range []string{"V-B", "width=-46%", "cycle=6", "10/10"} {
		if !strings.Contains(out, want) {
			t.Errorf("Search output missing %q: %s", want, out)
		}
	}
}

func TestTable4And5Rendering(t *testing.T) {
	t4 := &core.Table4Result{Rows: []core.BootRow{
		{Name: "None", Cycles: 1736},
		{Name: "Delay", Cycles: 184388, Constant: 177849},
	}}
	out := Table4(t4)
	for _, want := range []string{"Defense", "None", "Delay", "177849", "% Adjusted"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table4 output missing %q", want)
		}
	}

	t5, err := core.RunTable5()
	if err != nil {
		t.Fatal(err)
	}
	out5 := Table5(t5)
	for _, want := range []string{"text", "data", "bss", "total", "All\\Delay"} {
		if !strings.Contains(out5, want) {
			t.Errorf("Table5 output missing %q", want)
		}
	}
}

func TestTable6Rendering(t *testing.T) {
	t6 := &core.Table6Result{Cells: map[string]map[string]map[core.Attack]core.Table6Cell{
		"while(!a)": {
			"All": {
				core.AttackSingle: {Total: 107811, Successes: 10, Detections: 653},
			},
			"All\\Delay": {
				core.AttackSingle: {Total: 107811, Successes: 4, Detections: 1032},
			},
		},
	}}
	out := Table6(t6)
	for _, want := range []string{"while(!a)", "Single", "653", "All\\Delay"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table6 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable7Static(t *testing.T) {
	out := Table7()
	rows := Table7Data()
	if len(rows) != 9 {
		t.Fatalf("Table VII has %d rows, want 9 (8 prior works + GlitchResistor)", len(rows))
	}
	gr := rows[len(rows)-1]
	if gr.Name != "GlitchResistor" {
		t.Fatalf("last row = %q", gr.Name)
	}
	// The paper's claim: GlitchResistor is the only row with every
	// property.
	if !(gr.Generic && gr.Extensible && gr.BackwardCompatible &&
		gr.DataDiversify && gr.DataIntegrity && gr.ControlFlow && gr.RandomDelay) {
		t.Error("GlitchResistor row not fully checked")
	}
	for _, d := range rows[:len(rows)-1] {
		if d.Generic && d.Extensible && d.BackwardCompatible && d.DataDiversify &&
			d.DataIntegrity && d.ControlFlow && d.RandomDelay {
			t.Errorf("%s matches GlitchResistor on every property", d.Name)
		}
	}
	for _, want := range []string{"SWIFT", "CFCSS", "CAMFAS", "GlitchResistor"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table7 output missing %q", want)
		}
	}
}

func TestOutcomeTotalsConsistency(t *testing.T) {
	// Figure 2 rendering must not lose runs: histogram total equals the
	// number of mutated executions.
	results, err := core.RunFigure2(mutate.AND, false, 2, 1, false, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, r := range results {
		for k := 1; k < len(r.ByFlips); k++ {
			want += r.ByFlips[k].Total
		}
	}
	var got uint64
	for _, r := range results {
		for k := 1; k < len(r.ByFlips); k++ {
			for _, n := range r.ByFlips[k].Counts {
				got += n
			}
		}
	}
	if got != want || got == 0 {
		t.Fatalf("histogram covers %d of %d runs", got, want)
	}
	_ = campaign.Success // document the dependency used above via counts
}

// TestParallelRendersIdentical is the end-to-end golden-equivalence check
// the parallel engines promise: the rendered Figure 2 and Table I output
// of a sharded run must be byte-identical to a serial run's.
func TestParallelRendersIdentical(t *testing.T) {
	serial, err := core.RunFigure2(mutate.AND, false, 3, 1, false, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := core.RunFigure2(mutate.AND, false, 3, 4, false, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s, p := Figure2(serial, mutate.AND, false), Figure2(parallel, mutate.AND, false); s != p {
		t.Errorf("Figure 2 render differs between workers=1 and workers=4:\n--- serial ---\n%s\n--- parallel ---\n%s", s, p)
	}

	if testing.Short() {
		return // the Table I grid scans are full-size
	}
	m := glitcher.NewModel(core.DefaultSeed)
	st, err := m.RunTable1(glitcher.GuardWhileA, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := m.RunTable1(glitcher.GuardWhileA, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s, p := Table1(st), Table1(pt); s != p {
		t.Errorf("Table I render differs between serial and workers=4:\n--- serial ---\n%s\n--- parallel ---\n%s", s, p)
	}
}
