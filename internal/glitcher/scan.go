package glitcher

import (
	"errors"
	"fmt"
	"sort"

	"glitchlab/internal/firmware"
	"glitchlab/internal/pipeline"
	"glitchlab/internal/runctl"
)

// LoopCycles is the length of one guard-loop iteration in clock cycles (all
// three guards compile to 8-cycle loops, as in the paper's Table I).
const LoopCycles = 8

// attemptBudget bounds one glitch attempt in clock cycles. The guards loop
// forever; once the glitch window has passed with no effect the attempt is
// classified as unsuccessful.
const attemptBudget = 600

// Target is a board loaded with one guard firmware, ready for repeated
// glitch attempts.
type Target struct {
	Guard   Guard
	Board   *firmware.Board
	Machine *pipeline.Machine

	// FullRun disables trigger-point snapshot/replay, re-simulating the
	// boot prologue on every attempt. Results are byte-identical either
	// way (the prologue is injector-independent — see
	// pipeline.SnapshotAtTrigger); the flag exists so the equivalence is
	// checkable end to end.
	FullRun bool

	// snap is the lazily captured trigger-point snapshot every replayed
	// attempt restores; snapTried makes the capture happen once even when
	// it fails (a firmware that never triggers falls back to full runs).
	snap      *pipeline.Snapshot
	snapTried bool
}

// NewTarget assembles and loads src (one of the guard source builders) and
// registers the exit label as the success stop.
func NewTarget(g Guard, src string) (*Target, error) {
	b, err := firmware.NewBoard()
	if err != nil {
		return nil, err
	}
	if _, err := b.LoadSource(src); err != nil {
		return nil, fmt.Errorf("glitcher: %s firmware: %w", g, err)
	}
	m := pipeline.NewMachine(b)
	m.AddStopSymbol("exit")
	return &Target{Guard: g, Board: b, Machine: m}, nil
}

// snapshot returns the target's trigger-point snapshot, capturing it on
// first use. It returns nil — meaning "run fully" — when FullRun is set or
// when the firmware never raises its trigger within the attempt budget.
func (t *Target) snapshot() *pipeline.Snapshot {
	if t.FullRun {
		return nil
	}
	if !t.snapTried {
		t.snapTried = true
		t.snap = t.Machine.SnapshotAtTrigger(attemptBudget)
	}
	return t.snap
}

// Attempt rewinds the board to the trigger point (or resets it, on the
// full-run path) and runs one glitch attempt.
func (t *Target) Attempt(inj pipeline.Injector) pipeline.Result {
	t.Machine.Glitch = inj
	if s := t.snapshot(); s != nil {
		return t.Machine.RunFrom(s, attemptBudget)
	}
	t.Board.Reset()
	return t.Machine.Run(attemptBudget)
}

// CleanRun verifies the firmware loops forever when not glitched.
func (t *Target) CleanRun() pipeline.Result {
	return t.Attempt(pipeline.Injector{})
}

// CycleCount aggregates Table I's per-clock-cycle statistics.
type CycleCount struct {
	Cycle       int
	Instruction string // which instruction occupies this cycle
	Attempts    uint64
	Successes   uint64
	Values      map[uint32]uint64 // post-mortem comparator values on success
	// ByKind attributes each success to the physical corruption that the
	// glitch delivered — the mechanism analysis the paper performs by
	// hand in Section V-A (register data corrupted vs. execution
	// corrupted).
	ByKind map[pipeline.EventKind]uint64
}

// SortedValues returns the observed comparator values ordered by value.
func (c *CycleCount) SortedValues() []uint32 {
	vals := make([]uint32, 0, len(c.Values))
	for v := range c.Values {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

// cycleInstruction maps a relative clock cycle to the instruction the
// paper's tables attribute it to.
func (g Guard) cycleInstruction(cycle int) string {
	switch g {
	case GuardWhileNotA, GuardWhileA:
		names := []string{
			"MOV R3, SP", "ADDS R3, #7", "LDRB R3, [R3]", "LDRB R3, [R3]",
			"CMP R3, #0", "Bcc .loop", "Bcc .loop", "Bcc .loop",
		}
		if cycle < len(names) {
			n := names[cycle]
			if n == "Bcc .loop" {
				if g == GuardWhileNotA {
					return "BEQ .loop"
				}
				return "BNE .loop"
			}
			return n
		}
	case GuardWhileNeq:
		names := []string{
			"LDR R2, [SP,#0x10]", "LDR R2, [SP,#0x10]",
			"LDR R3, =0xD3B9AEC6", "LDR R3, =0xD3B9AEC6",
			"CMP R2, R3", "BNE .loop", "BNE .loop", "BNE .loop",
		}
		if cycle < len(names) {
			return names[cycle]
		}
	}
	return fmt.Sprintf("cycle %d", cycle)
}

// Table1Result is one guard's single-glitch scan (Table I a/b/c).
type Table1Result struct {
	Guard     Guard
	PerCycle  []CycleCount
	Attempts  uint64
	Successes uint64
}

// SuccessRate returns the overall success fraction.
func (r *Table1Result) SuccessRate() float64 {
	if r.Attempts == 0 {
		return 0
	}
	return float64(r.Successes) / float64(r.Attempts)
}

// KindBreakdown sums success attributions across all cycles.
func (r *Table1Result) KindBreakdown() map[pipeline.EventKind]uint64 {
	out := map[pipeline.EventKind]uint64{}
	for _, c := range r.PerCycle {
		for k, n := range c.ByKind {
			out[k] += n
		}
	}
	return out
}

// UniqueValues counts distinct post-mortem comparator values across all
// cycles (the paper reports e.g. "12 unique").
func (r *Table1Result) UniqueValues() int {
	set := map[uint32]bool{}
	for _, c := range r.PerCycle {
		for v := range c.Values {
			set[v] = true
		}
	}
	return len(set)
}

// scanCycleBand runs the Table I body for one clock cycle over the width
// band [lo, hi), returning the band's partial per-cycle counts. ob is the
// unit's observation (nil when the scan is not observed).
func (m *Model) scanCycleBand(t *Target, cycle, lo, hi int, ob *UnitObs) CycleCount {
	cmpReg := t.Guard.ComparatorReg()
	cc := CycleCount{
		Cycle:       cycle,
		Instruction: t.Guard.cycleInstruction(cycle),
		Values:      map[uint32]uint64{},
		ByKind:      map[pipeline.EventKind]uint64{},
	}
	GridBand(lo, hi, func(p Params) bool {
		cc.Attempts++
		// The model is deterministic, so a parameter point that
		// produces no event at this cycle cannot affect the run;
		// skip the emulation (identical outcome, less time).
		ev, hit := m.EventAt(p, cycle, 0)
		if !hit {
			ob.NoEffect(p)
			return true
		}
		r := t.Attempt(m.Plan(p, cycle))
		ob.Attempt(p, r)
		if r.Reason == pipeline.StopHit {
			cc.Successes++
			cc.Values[r.Regs[cmpReg]]++
			cc.ByKind[ev.Kind]++
		}
		return true
	})
	return cc
}

// merge adds a band's partial counts into cc (which must be for the same
// cycle).
func (c *CycleCount) merge(part CycleCount) {
	c.Attempts += part.Attempts
	c.Successes += part.Successes
	for v, n := range part.Values {
		c.Values[v] += n
	}
	for k, n := range part.ByKind {
		c.ByKind[k] += n
	}
}

// addCycle appends one cycle's counts to the table.
func (r *Table1Result) addCycle(cc CycleCount) {
	r.Attempts += cc.Attempts
	r.Successes += cc.Successes
	r.PerCycle = append(r.PerCycle, cc)
}

// RunTable1 performs the paper's Table I scan for one guard: for each of
// the loop's clock cycles, every (width, offset) pair is attempted once.
// The grid's width rows are the work units of workers goroutines, each
// scanning its rows across every clock cycle on its own Target, and the
// per-cycle counts merge by addition, so the result does not depend on
// the worker count. rn, when non-nil, adds cancellation, per-row
// checkpointing and panic quarantine (see runRows); on interruption the
// partial table covering the completed rows is returned alongside the
// error.
func (m *Model) RunTable1(g Guard, workers int, rn *runctl.Run) (*Table1Result, error) {
	defer m.Obs.Span("scan.table1", map[string]any{"guard": g.String()}).End()
	merged, err := runRows(m, g, g.SingleLoopSource(), workers, rn, "table1",
		LoopCycles,
		func(cycle int) CycleCount {
			return CycleCount{
				Cycle:       cycle,
				Instruction: g.cycleInstruction(cycle),
				Values:      map[uint32]uint64{},
				ByKind:      map[pipeline.EventKind]uint64{},
			}
		},
		func(t *Target, lo, hi int, ob *UnitObs) []CycleCount {
			parts := make([]CycleCount, 0, LoopCycles)
			for cycle := 0; cycle < LoopCycles; cycle++ {
				parts = append(parts, m.scanCycleBand(t, cycle, lo, hi, ob))
			}
			return parts
		},
		func(dst *CycleCount, part CycleCount) { dst.merge(part) })
	if err != nil && !errors.Is(err, runctl.ErrInterrupted) {
		return nil, err
	}
	res := &Table1Result{Guard: g}
	for _, cc := range merged {
		res.addCycle(cc)
	}
	return res, err
}

// row is one width row's result, as the checkpoint stores it: one cell per
// scanned cycle or range and, on an observed scan, the row's observation.
type row[T any] struct {
	Cells []T      `json:"cells"`
	Obs   *UnitObs `json:"obs,omitempty"`
}

// runRows drives one guard scan over the grid on a runctl.Pool: a width
// row (one width, every offset, every cell) is the unit of work. Every
// worker has its own Target (boards are mutable, so none is ever shared),
// rebuilt after a quarantine. scan must return one cell per scanned unit
// (cycle or range index), in the same order for every row; rows are
// summed ascending with mergeCell into cells seeded by newCell, and their
// observations merged in the same order, which makes the final counts,
// metrics and trace independent of the worker count — and of how a
// checkpointed run was split across interruptions, since the unit is a
// property of the grid, not of the schedule.
//
// rn, when non-nil, threads the run controller through the scan: rows are
// skipped when the checkpoint already holds them with the right cell
// count, checkpointed when they complete, and quarantined when they
// panic; cancellation is polled between rows. An interrupted scan returns
// the merge of the completed rows together with the wrapped
// runctl.ErrInterrupted.
func runRows[T any](m *Model, g Guard, src string, workers int,
	rn *runctl.Run, exp string, cells int, newCell func(i int) T,
	scan func(t *Target, lo, hi int, ob *UnitObs) []T,
	mergeCell func(dst *T, part T)) ([]T, error) {

	keys := make([]string, 2*ParamRange+1)
	for ri := range keys {
		keys[ri] = fmt.Sprintf("%s guard=%s width=%d", exp, g, ri-ParamRange)
	}
	merged := make([]T, cells)
	for i := range merged {
		merged[i] = newCell(i)
	}
	err := runctl.Pool[row[T]]{
		Keys:    keys,
		Workers: workers,
		Start: func() (func(int) (row[T], error), error) {
			t, err := NewTarget(g, src)
			if err != nil {
				return nil, err
			}
			t.FullRun = m.FullRun
			scanRow := func(ri int) (row[T], error) {
				lo := ri - ParamRange
				ob := m.Obs.Unit(keys[ri], cellIndex(Params{Width: lo, Offset: -ParamRange}), 2*ParamRange+1)
				return row[T]{scan(t, lo, lo+1, ob), ob}, nil
			}
			return scanRow, nil
		},
		// An observed scan needs every restored row's observation, kept
		// under its tracer's settings; a row without one reruns.
		Restored: func(r row[T]) bool {
			return len(r.Cells) == cells && (m.Obs == nil || r.Obs != nil && r.Obs.Trace.Fits(m.Obs.tracer))
		},
		Emit: func(_ int, r row[T]) {
			for i := range merged {
				mergeCell(&merged[i], r.Cells[i])
			}
			m.Obs.Merge(r.Obs)
		},
	}.Run(rn)
	return merged, err
}

// Table2Result is one guard's multi-glitch scan (Table II).
type Table2Result struct {
	Guard    Guard
	Partial  []uint64 // per cycle: first glitch succeeded, second failed
	Full     []uint64 // per cycle: both glitches succeeded
	Attempts uint64
}

// Totals returns the summed partial and full counts.
func (r *Table2Result) Totals() (partial, full uint64) {
	for i := range r.Partial {
		partial += r.Partial[i]
		full += r.Full[i]
	}
	return partial, full
}

// table2Cell is one (cycle, band) slice of the multi-glitch scan. Fields
// are exported so checkpointed rows JSON-round-trip exactly.
type table2Cell struct {
	Attempts, Partial, Full uint64
}

// scanTable2Band runs the Table II body for one clock cycle over the
// width band [lo, hi).
func (m *Model) scanTable2Band(t *Target, cycle, lo, hi int, ob *UnitObs) table2Cell {
	var cell table2Cell
	GridBand(lo, hi, func(p Params) bool {
		cell.Attempts++
		// No event in the first window means the first loop can never be
		// escaped — neither partial nor full.
		if _, hit := m.EventAt(p, cycle, 0); !hit {
			ob.NoEffect(p)
			return true
		}
		r := t.Attempt(m.Plan(p, cycle))
		ob.Attempt(p, r)
		switch {
		case r.Reason == pipeline.StopHit:
			cell.Full++
		case t.Board.TriggerCount >= 2:
			// The second trigger fired, so the first loop was escaped — a
			// partial glitch.
			cell.Partial++
		}
		return true
	})
	return cell
}

// RunTable2 performs the multi-glitch experiment: two identical loops, each
// with its own trigger; the same glitch parameters are delivered in both
// windows. workers and rn work as in RunTable1.
func (m *Model) RunTable2(g Guard, workers int, rn *runctl.Run) (*Table2Result, error) {
	defer m.Obs.Span("scan.table2", map[string]any{"guard": g.String()}).End()
	merged, err := runRows(m, g, g.DoubleLoopSource(), workers, rn, "table2",
		LoopCycles,
		func(int) table2Cell { return table2Cell{} },
		func(t *Target, lo, hi int, ob *UnitObs) []table2Cell {
			parts := make([]table2Cell, 0, LoopCycles)
			for cycle := 0; cycle < LoopCycles; cycle++ {
				parts = append(parts, m.scanTable2Band(t, cycle, lo, hi, ob))
			}
			return parts
		},
		func(dst *table2Cell, part table2Cell) {
			dst.Attempts += part.Attempts
			dst.Partial += part.Partial
			dst.Full += part.Full
		})
	if err != nil && !errors.Is(err, runctl.ErrInterrupted) {
		return nil, err
	}
	res := &Table2Result{
		Guard:   g,
		Partial: make([]uint64, LoopCycles),
		Full:    make([]uint64, LoopCycles),
	}
	for cycle, cell := range merged {
		res.Attempts += cell.Attempts
		res.Partial[cycle] = cell.Partial
		res.Full[cycle] = cell.Full
	}
	return res, err
}

// Table3Result is one guard's long-glitch scan (Table III).
type Table3Result struct {
	Guard     Guard
	Cycles    []int    // inclusive end of each glitched range [0, n)
	Successes []uint64 // per range
	Attempts  uint64
}

// Total returns the summed successes.
func (r *Table3Result) Total() uint64 {
	var n uint64
	for _, s := range r.Successes {
		n += s
	}
	return n
}

// longGlitchRanges returns the inclusive range bound n for each long-glitch
// scan index: the paper glitches every cycle in [0, n) for n in [10, 20].
func longGlitchRanges() []int {
	ns := make([]int, 0, 11)
	for n := 10; n <= 20; n++ {
		ns = append(ns, n)
	}
	return ns
}

// table3Cell is one (range, band) slice of the long-glitch scan. Fields
// are exported so checkpointed rows JSON-round-trip exactly.
type table3Cell struct {
	Attempts, Successes uint64
}

// scanTable3Band runs the Table III body for one glitched range [0, n)
// over the width band [lo, hi).
func (m *Model) scanTable3Band(t *Target, n, lo, hi int, ob *UnitObs) table3Cell {
	var cell table3Cell
	GridBand(lo, hi, func(p Params) bool {
		cell.Attempts++
		any := false
		for rel := 0; rel < n && !any; rel++ {
			_, any = m.EventAt(p, rel, 0)
		}
		if !any {
			ob.NoEffect(p)
			return true
		}
		r := t.Attempt(m.RangePlan(p, 0, n))
		ob.Attempt(p, r)
		if r.Reason == pipeline.StopHit {
			cell.Successes++
		}
		return true
	})
	return cell
}

// RunTable3 performs the long-glitch experiment: a glitch is inserted at
// every clock cycle from the trigger up to n, for n in [10, 20], against
// two subsequent loops. workers and rn work as in RunTable1.
func (m *Model) RunTable3(g Guard, workers int, rn *runctl.Run) (*Table3Result, error) {
	defer m.Obs.Span("scan.table3", map[string]any{"guard": g.String()}).End()
	ns := longGlitchRanges()
	merged, err := runRows(m, g, g.LongGlitchSource(), workers, rn, "table3",
		len(ns),
		func(int) table3Cell { return table3Cell{} },
		func(t *Target, lo, hi int, ob *UnitObs) []table3Cell {
			parts := make([]table3Cell, 0, len(ns))
			for _, n := range ns {
				parts = append(parts, m.scanTable3Band(t, n, lo, hi, ob))
			}
			return parts
		},
		func(dst *table3Cell, part table3Cell) {
			dst.Attempts += part.Attempts
			dst.Successes += part.Successes
		})
	if err != nil && !errors.Is(err, runctl.ErrInterrupted) {
		return nil, err
	}
	res := &Table3Result{Guard: g}
	for i, cell := range merged {
		res.Attempts += cell.Attempts
		res.Cycles = append(res.Cycles, ns[i])
		res.Successes = append(res.Successes, cell.Successes)
	}
	return res, err
}
