package core

import (
	"errors"
	"fmt"
	"strings"

	"glitchlab/internal/codegen"
	"glitchlab/internal/firmware"
	"glitchlab/internal/glitcher"
	"glitchlab/internal/isa"
	"glitchlab/internal/passes"
	"glitchlab/internal/pipeline"
	"glitchlab/internal/runctl"
)

// DefenseConfigs returns the evaluation's defense matrix in the paper's
// table order: None, Branches, Delay, Integrity, Loops, Returns,
// All\Delay, All.
func DefenseConfigs(sensitive ...string) []passes.Config {
	return []passes.Config{
		passes.None(),
		{Branches: true},
		{Delay: true},
		{Integrity: true, Sensitive: sensitive},
		{Loops: true},
		{Returns: true},
		passes.AllButDelay(sensitive...),
		passes.All(sensitive...),
	}
}

// BootRow is one Table IV row: boot-time overhead for a defense set.
type BootRow struct {
	Name     string
	Cycles   uint64 // reset to boot_done
	Constant uint64 // one-time flash-update cost included in Cycles
}

// Table4Result reproduces Table IV.
type Table4Result struct {
	Rows []BootRow
}

// Baseline returns the unprotected boot cycles.
func (t *Table4Result) Baseline() uint64 {
	for _, r := range t.Rows {
		if r.Name == "None" {
			return r.Cycles
		}
	}
	return 0
}

// Increase returns a row's raw percentage increase over the baseline.
func (t *Table4Result) Increase(r BootRow) float64 {
	base := t.Baseline()
	if base == 0 {
		return 0
	}
	return 100 * (float64(r.Cycles) - float64(base)) / float64(base)
}

// Adjusted returns the percentage increase with the one-time flash
// constant removed, as the paper's "% Adjusted" column does.
func (t *Table4Result) Adjusted(r BootRow) float64 {
	base := t.Baseline()
	if base == 0 {
		return 0
	}
	return 100 * (float64(r.Cycles) - float64(r.Constant) - float64(base)) /
		float64(base)
}

// RunTable4 measures the boot-time overhead of every defense set against
// the evaluation firmware (paper Table IV).
func RunTable4() (*Table4Result, error) {
	res := &Table4Result{}
	for _, cfg := range DefenseConfigs(EvalSensitive...) {
		cr, err := Compile(EvalFirmware, cfg)
		if err != nil {
			return nil, fmt.Errorf("core: table4 %s: %w", cfg.Name(), err)
		}
		m, err := NewMachine(cr.Image)
		if err != nil {
			return nil, err
		}
		r := m.Run(50_000_000)
		if r.Reason != pipeline.StopHit || r.Tag != "boot_done" {
			return nil, fmt.Errorf("core: table4 %s boot ended %v/%q fault=%v",
				cfg.Name(), r.Reason, r.Tag, r.Fault)
		}
		res.Rows = append(res.Rows, BootRow{
			Name:     cfg.Name(),
			Cycles:   r.Cycles,
			Constant: uint64(m.Board.FlashWrites) * firmware.FlashWriteCycles,
		})
	}
	return res, nil
}

// SizeRow is one Table V row.
type SizeRow struct {
	Name  string
	Sizes codegen.Sizes
}

// Table5Result reproduces Table V.
type Table5Result struct {
	Rows []SizeRow
}

// Baseline returns the unprotected sizes.
func (t *Table5Result) Baseline() codegen.Sizes {
	for _, r := range t.Rows {
		if r.Name == "None" {
			return r.Sizes
		}
	}
	return codegen.Sizes{}
}

// RunTable5 measures the size overhead of every defense set (paper
// Table V).
func RunTable5() (*Table5Result, error) {
	res := &Table5Result{}
	for _, cfg := range DefenseConfigs(EvalSensitive...) {
		cr, err := Compile(EvalFirmware, cfg)
		if err != nil {
			return nil, fmt.Errorf("core: table5 %s: %w", cfg.Name(), err)
		}
		res.Rows = append(res.Rows, SizeRow{Name: cfg.Name(), Sizes: cr.Image.Sizes})
	}
	return res, nil
}

// Attack identifies one of Table VI's three attack shapes.
type Attack uint8

// Table VI attacks.
const (
	AttackSingle   Attack = iota + 1 // one glitched cycle, position swept 0-10
	AttackLong                       // cycles 0..N, N swept 10-100 by 10
	AttackWindowed                   // 10-cycle window, start swept 0-10
)

// String names the attack as the evaluation prints it.
func (a Attack) String() string {
	switch a {
	case AttackSingle:
		return "Single"
	case AttackLong:
		return "Long"
	case AttackWindowed:
		return "10 Cycles"
	}
	return fmt.Sprintf("attack%d", uint8(a))
}

// Attacks lists Table VI's attacks in order.
func Attacks() []Attack { return []Attack{AttackSingle, AttackLong, AttackWindowed} }

// Table6Cell is one attack's outcome against one scenario/defense build.
type Table6Cell struct {
	Total      uint64
	Successes  uint64
	Detections uint64
}

// SuccessRate returns successes/total.
func (c Table6Cell) SuccessRate() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Successes) / float64(c.Total)
}

// DetectionRate returns detections/(detections+successes), the paper's
// detection metric: of the glitches that did something, how many were
// caught.
func (c Table6Cell) DetectionRate() float64 {
	den := c.Detections + c.Successes
	if den == 0 {
		return 0
	}
	return float64(c.Detections) / float64(den)
}

// Scenario is a Table VI target program.
type Scenario struct {
	Name      string
	Source    string
	Sensitive []string
}

// Table6Scenarios returns the two scenarios of the paper's Table VI.
func Table6Scenarios() []Scenario {
	return []Scenario{
		{Name: "while(!a)", Source: WhileNotAFirmware},
		{Name: "if(a==SUCCESS)", Source: IfSuccessFirmware},
	}
}

// table6Settle is how long after the glitch window a run may continue
// before being classified as unaffected (still looping). Instrumented loop
// iterations are at most a few hundred cycles, so a few thousand cycles of
// settle suffice for any success or detection path to land on its symbol.
const table6Settle = 6_000

// RunTable6Cell scans one (scenario, defense, attack) cell over the full
// parameter grid. rn, when non-nil, is polled for cancellation every
// spansCheckEvery grid points and between spans; an interrupted cell
// returns its partial counts with an error wrapping runctl.ErrInterrupted
// (the caller does not checkpoint partial cells).
func RunTable6Cell(model *glitcher.Model, sc Scenario, cfg passes.Config,
	attack Attack, rn *runctl.Run) (Table6Cell, error) {
	cr, err := Compile(sc.Source, cfg)
	if err != nil {
		return Table6Cell{}, fmt.Errorf("core: table6 %s/%s: %w",
			sc.Name, cfg.Name(), err)
	}
	m, err := NewMachine(cr.Image)
	if err != nil {
		return Table6Cell{}, err
	}
	// Measure the trigger's boot offset and the guard's span once. The
	// paper sweeps 11 glitch positions over its 8-10 cycle guard; our
	// unoptimized code generator dilates a defended guard iteration to
	// tens of cycles, so the equivalent-intent sweep places the same 11
	// positions uniformly across one guard iteration (see EXPERIMENTS.md
	// for this substitution's rationale).
	bootCycles, guardSpan, err := measureGuard(m, cr.Image)
	if err != nil {
		return Table6Cell{}, fmt.Errorf("core: table6 %s/%s: %w",
			sc.Name, cfg.Name(), err)
	}

	type span struct{ from, to int }
	var spans []span
	positions := samplePositions(guardSpan)
	switch attack {
	case AttackSingle:
		for _, c := range positions {
			spans = append(spans, span{c, c + 1})
		}
	case AttackLong:
		for n := 10; n <= 100; n += 10 {
			spans = append(spans, span{0, n})
		}
	case AttackWindowed:
		for _, s := range positions {
			spans = append(spans, span{s, s + 10})
		}
	}

	var cell Table6Cell
	for _, sp := range spans {
		if err := rn.Err(); err != nil {
			return cell, err
		}
		aborted := false
		sinceCheck := 0
		glitcher.GridUntil(func(p glitcher.Params) bool {
			if sinceCheck++; sinceCheck >= spansCheckEvery {
				sinceCheck = 0
				if rn.Err() != nil {
					aborted = true
					return false
				}
			}
			cell.Total++
			// Deterministic fast path: a parameter point that delivers
			// no event anywhere in the window cannot change the run.
			// Skipping the point also skips its boot, and with it the
			// seed increment the All cells' random-delay defense
			// persists in flash on every boot, so later attempts see the
			// seed the skipped boots would have advanced past.
			any := false
			for rel := sp.from; rel < sp.to && !any; rel++ {
				_, any = model.EventInContext(p, rel, 0, rel-sp.from)
			}
			if !any {
				return true
			}
			m.Board.Reset()
			m.Glitch = model.RangePlan(p, sp.from, sp.to)
			r := m.Run(bootCycles + uint64(sp.to) + table6Settle)
			switch {
			case r.Reason == pipeline.StopHit && r.Tag == "success":
				cell.Successes++
			case r.Reason == pipeline.StopHit && r.Tag == passes.DetectFunc:
				cell.Detections++
			}
			return true
		})
		if aborted {
			return cell, rn.Err()
		}
	}
	return cell, nil
}

// spansCheckEvery is how many grid points a Table VI span scans between
// cancellation polls — frequent enough that a deadline or SIGINT lands
// within milliseconds, rare enough to stay out of the hot path.
const spansCheckEvery = 128

// samplePositions spreads the paper's 11 glitch positions uniformly over
// one guard span.
func samplePositions(span int) []int {
	if span < 11 {
		span = 11
	}
	out := make([]int, 0, 11)
	for i := 0; i <= 10; i++ {
		out = append(out, i*(span-1)/10)
	}
	return out
}

// measureGuard runs the firmware clean and reports the trigger's boot
// offset plus the guard's cycle span: for looping guards, one loop
// iteration; for straight-line guards, the trigger-to-halt distance.
func measureGuard(m *pipeline.Machine, img *codegen.Image) (boot uint64, span int, err error) {
	// Find the first loop-header block of main, if any.
	var loopAddr uint32
	for name, addr := range img.Prog.Symbols {
		if strings.HasPrefix(name, "f_main_loop") {
			if loopAddr == 0 || addr < loopAddr {
				loopAddr = addr
			}
		}
	}
	var visits []uint64
	cpu := m.Board.CPU
	prevExec := cpu.Hooks.OnExec
	cpu.Hooks.OnExec = func(addr uint32, in isa.Inst) {
		if addr == loopAddr && len(visits) < 3 {
			visits = append(visits, cpu.Cycles)
		}
	}
	m.Board.Reset()
	m.Glitch = pipeline.Injector{}
	r := m.Run(firmware.FlashWriteCycles + 80_000)
	cpu.Hooks.OnExec = prevExec
	if m.Board.TriggerCount == 0 {
		return 0, 0, fmt.Errorf("firmware never triggers")
	}
	boot = m.Board.TriggerCycle
	switch {
	case len(visits) >= 3:
		// Steady-state loop period (skip the first, partial interval).
		span = int(visits[2] - visits[1])
	case r.Reason == pipeline.StopHit:
		span = int(r.Cycles - boot)
	default:
		return 0, 0, fmt.Errorf("cannot determine guard span")
	}
	if span < 1 {
		span = 1
	}
	return boot, span, nil
}

// Table6Result holds the full defense-efficacy matrix.
type Table6Result struct {
	// Cells[scenario][config][attack].
	Cells map[string]map[string]map[Attack]Table6Cell
}

// Table6Configs returns the two defense sets Table VI evaluates.
func Table6Configs(sensitive ...string) []passes.Config {
	return []passes.Config{passes.All(sensitive...), passes.AllButDelay(sensitive...)}
}

// RunTable6 runs the complete Table VI evaluation. This is the heaviest
// experiment (about 1.25 million glitch attempts). Its work unit is the
// (scenario, defense, attack) cell: a runctl.Pool of workers goroutines
// takes whole cells, each compiling and scanning its cell on its own
// machine, so the counts do not depend on the worker count. The cell is
// the smallest unit that keeps them that way: a cell's attempts share one
// board, whose flash (and, in the All configuration, the random-delay
// seed persisted there) carries over from attempt to attempt. progress,
// when non-nil, is called once per restored or completed cell, in table
// order, from the calling goroutine.
//
// rn, when non-nil, threads the run controller through the matrix: each
// cell is a checkpointed work unit, skipped on resume and quarantined on
// panic; no cell starts after another failed; an interrupted run returns
// the cells completed so far with an error wrapping
// runctl.ErrInterrupted.
func RunTable6(model *glitcher.Model, workers int, progress func(sc, cfg string,
	a Attack, cell Table6Cell), rn *runctl.Run) (*Table6Result, error) {
	type unit struct {
		sc     Scenario
		cfg    passes.Config
		attack Attack
	}
	res := &Table6Result{Cells: map[string]map[string]map[Attack]Table6Cell{}}
	var units []unit
	var keys []string
	for _, sc := range Table6Scenarios() {
		res.Cells[sc.Name] = map[string]map[Attack]Table6Cell{}
		for _, cfg := range Table6Configs(sc.Sensitive...) {
			res.Cells[sc.Name][cfg.Name()] = map[Attack]Table6Cell{}
			for _, attack := range Attacks() {
				units = append(units, unit{sc: sc, cfg: cfg, attack: attack})
				keys = append(keys, fmt.Sprintf("table6 scenario=%s config=%s attack=%s",
					sc.Name, cfg.Name(), attack))
			}
		}
	}
	runCell := func(i int) (Table6Cell, error) {
		u := units[i]
		return RunTable6Cell(model, u.sc, u.cfg, u.attack, rn)
	}
	err := runctl.Pool[Table6Cell]{
		Keys:    keys,
		Workers: workers,
		Start: func() (func(int) (Table6Cell, error), func(), error) {
			return runCell, nil, nil
		},
		Emit: func(i int, cell Table6Cell) {
			u := units[i]
			res.Cells[u.sc.Name][u.cfg.Name()][u.attack] = cell
			if progress != nil {
				progress(u.sc.Name, u.cfg.Name(), u.attack, cell)
			}
		},
	}.Run(rn)
	switch {
	case errors.Is(err, runctl.ErrInterrupted):
		return res, err
	case err != nil:
		return nil, err
	}
	return res, rn.FinishErr()
}
