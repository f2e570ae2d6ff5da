// Package pipeline models the target's three-stage (fetch / decode /
// execute) Cortex-M0 pipeline with cycle accuracy, and maps clock-glitch
// events onto pipeline stages: a glitch during clock cycle N can corrupt the
// instruction word in the fetch stage (affecting the instruction that
// executes two issue slots later), corrupt the word latched into execute,
// corrupt the data bus of an in-flight load, suppress issue entirely, or
// flip bits in the register file.
//
// The paper (Section V) stresses that on a three-stage pipeline it is hard
// to attribute a glitch to a single instruction; this model reproduces that
// ambiguity: one glitched cycle can touch both the executing instruction and
// the one being prefetched.
package pipeline

import (
	"errors"
	"fmt"

	"glitchlab/internal/emu"
	"glitchlab/internal/firmware"
	"glitchlab/internal/isa"
)

// EventKind selects which pipeline stage a glitch corrupts.
type EventKind uint8

// Event kinds.
const (
	EventNone         EventKind = iota
	EventFetchCorrupt           // corrupt the word in the fetch stage
	EventExecCorrupt            // corrupt the word latched into execute
	EventDataCorrupt            // corrupt the data bus of an in-flight load
	EventSkip                   // suppress issue (instruction becomes a bubble)
	EventRegCorrupt             // flip bits in the register file
	EventPCCorrupt              // corrupt the fetch address / program counter
)

// String returns the event-kind name.
func (k EventKind) String() string {
	switch k {
	case EventNone:
		return "none"
	case EventFetchCorrupt:
		return "fetch-corrupt"
	case EventExecCorrupt:
		return "exec-corrupt"
	case EventDataCorrupt:
		return "data-corrupt"
	case EventSkip:
		return "skip"
	case EventRegCorrupt:
		return "reg-corrupt"
	case EventPCCorrupt:
		return "pc-corrupt"
	}
	return fmt.Sprintf("event%d", uint8(k))
}

// Event is one glitch-induced corruption.
type Event struct {
	Kind EventKind
	// InstMask is applied to the targeted instruction halfword: bits are
	// cleared (1→0, the dominant clock-glitch effect) unless InstSet.
	InstMask uint16
	InstSet  bool
	// DataMask is applied to a loaded data word or a register.
	DataMask uint32
	DataSet  bool
	// DataResidue replaces the loaded value outright with DataValue —
	// a short glitch makes the bus capture whatever residue is floating
	// on it rather than a bit-flipped version of the real value.
	DataResidue bool
	DataValue   uint32
	// Reg is the register file target for EventRegCorrupt (r0-r7).
	Reg isa.Reg
}

func (e Event) applyInst(hw uint16) uint16 {
	if e.InstSet {
		return hw | e.InstMask
	}
	return hw &^ e.InstMask
}

func (e Event) applyData(v uint32) uint32 {
	if e.DataResidue {
		return e.DataValue
	}
	if e.DataSet {
		return v | e.DataMask
	}
	return v &^ e.DataMask
}

// Injector supplies the glitch events for a run. At is called with rel,
// the clock cycle relative to the most recent trigger, and window, the
// trigger occurrence index (0 for the first trigger — multi-glitch
// experiments see 0 and 1). [From, To) is the injector's support: At may
// report an event only for From <= rel < To, and the machine skips the
// glitch mapping for every instruction that starts at or after To in the
// current trigger window. The zero Injector (nil At) injects nothing.
type Injector struct {
	From, To int
	At       func(rel, window int) (Event, bool)
}

// StopReason describes how a run ended.
type StopReason uint8

// Stop reasons.
const (
	StopHit   StopReason = iota // reached a stop symbol
	StopHung                    // cycle budget exhausted (still looping)
	StopFault                   // hardware fault
)

// String returns the stop-reason name.
func (r StopReason) String() string {
	switch r {
	case StopHit:
		return "hit"
	case StopHung:
		return "hung"
	case StopFault:
		return "fault"
	}
	return fmt.Sprintf("reason%d", uint8(r))
}

// Result summarizes one run.
type Result struct {
	Reason StopReason
	Tag    string        // stop symbol name for StopHit
	Fault  emu.FaultKind // fault kind for StopFault
	Regs   [16]uint32    // post-mortem register file
	Cycles uint64
	Steps  uint64
}

// fetchAhead is the pipeline depth between fetch and execute: with three
// stages, the word being fetched during cycle N executes two issue slots
// after the instruction executing at N.
const fetchAhead = 2

// ringSlots is the size of the step-indexed ring of pending glitch
// effects: an event lands on the current issue slot or, for fetch-stage
// corruption, fetchAhead slots later, and each slot is cleared as soon as
// its instruction retires.
const ringSlots = fetchAhead + 2

// slot holds the glitch effects pending for one issue slot.
type slot struct {
	inst    Event // instruction corruption; the first event scheduled wins
	data    Event // load-data corruption, consumed by the slot's first load
	hasInst bool
	hasData bool
	skip    bool // suppress issue
}

// stop is a stop symbol: a run ends when PC reaches addr.
type stop struct {
	addr uint32
	tag  string
}

// Machine drives a board cycle-accurately with optional glitch injection.
type Machine struct {
	Board  *firmware.Board
	Glitch Injector // zero for clean runs

	// MaxSteps, when non-zero, bounds the run by retired instructions in
	// addition to Run's cycle budget, reporting StopHung once the count is
	// reached. Differential harnesses use it to cut a pipeline run and a
	// functional emu.CPU.Run at exactly the same instruction, so that even
	// hung executions can be compared register for register (a cycle
	// budget cannot do that: flash-programming stalls make the
	// cycles-per-instruction ratio program-dependent).
	MaxSteps uint64

	stops []stop

	windowStart uint64 // cycle at which the active trigger window began
	windowIdx   int    // trigger occurrence index (-1 before first trigger)

	step         uint64
	ring         [ringSlots]slot // pending effects, indexed by step % ringSlots
	curStepFetch bool            // first fetch of the current step already seen
	curStep      uint64
}

// NewMachine wires a machine to a board.
func NewMachine(b *firmware.Board) *Machine {
	m := &Machine{
		Board:     b,
		windowIdx: -1,
	}
	b.OnTrigger = func(cycle uint64, count int) {
		// The store retires after this hook runs; the next instruction
		// begins at the store's completion cycle. The paper's triggers
		// fire one cycle before the targeted instruction, which is the
		// store's own final cycle — so the window starts at the cycle
		// following the hook's view of time plus the store cost.
		m.windowStart = b.CPU.Cycles + 2 // str is a 2-cycle instruction
		m.windowIdx = count - 1
	}
	b.CPU.Hooks.FetchOverride = m.fetchOverride
	b.CPU.Hooks.LoadOverride = m.loadOverride
	return m
}

// AddStop registers a stop symbol; re-adding an address replaces its tag.
func (m *Machine) AddStop(addr uint32, tag string) {
	for i := range m.stops {
		if m.stops[i].addr == addr {
			m.stops[i].tag = tag
			return
		}
	}
	m.stops = append(m.stops, stop{addr, tag})
}

// AddStopSymbol registers a stop at a named program symbol.
func (m *Machine) AddStopSymbol(name string) {
	m.AddStop(m.Board.MustSymbol(name), name)
}

// RemoveStop disarms the stop at addr, if any.
func (m *Machine) RemoveStop(addr uint32) {
	for i := range m.stops {
		if m.stops[i].addr == addr {
			m.stops = append(m.stops[:i], m.stops[i+1:]...)
			return
		}
	}
}

// stopAt returns the tag of the stop at pc. Machines carry a handful of
// stops, so a scan beats a map lookup on every step.
func (m *Machine) stopAt(pc uint32) (string, bool) {
	for i := range m.stops {
		if m.stops[i].addr == pc {
			return m.stops[i].tag, true
		}
	}
	return "", false
}

// slotAt returns the pending-effect slot of issue slot step.
func (m *Machine) slotAt(step uint64) *slot {
	return &m.ring[step%ringSlots]
}

func (m *Machine) fetchOverride(addr uint32, hw uint16) uint16 {
	// Only the first halfword fetched in a step is the issue word.
	if m.curStepFetch {
		return hw
	}
	m.curStepFetch = true
	if s := m.slotAt(m.curStep); s.skip {
		return 0xbf00 // issue bubble: NOP
	} else if s.hasInst {
		return s.inst.applyInst(hw)
	}
	return hw
}

func (m *Machine) loadOverride(addr uint32, size uint32, val uint32) uint32 {
	if s := m.slotAt(m.curStep); s.hasData {
		s.hasData = false
		return s.data.applyData(val)
	}
	return val
}

// peek decodes the instruction at pc, applying any corruption already
// scheduled for the upcoming step, so that the cycle-cost estimate matches
// what will execute.
func (m *Machine) peek(pc uint32) (isa.Inst, bool) {
	cpu := m.Board.CPU
	r, ok := cpu.Mem.Region(pc, 2)
	if !ok || pc%2 != 0 {
		return isa.Inst{}, false
	}
	off := pc - r.Base
	hw := uint16(r.Data[off]) | uint16(r.Data[off+1])<<8
	if s := m.slotAt(m.step); s.skip {
		hw = 0xbf00
	} else if s.hasInst {
		hw = s.inst.applyInst(hw)
	}
	var hw2 uint16
	if isa.Is32Bit(hw) {
		if r2, ok := cpu.Mem.Region(pc+2, 2); ok {
			o2 := pc + 2 - r2.Base
			hw2 = uint16(r2.Data[o2]) | uint16(r2.Data[o2+1])<<8
		}
	}
	return isa.Decode(hw, hw2), true
}

// Run executes until a stop symbol, a fault, or the cycle budget.
func (m *Machine) Run(maxCycles uint64) Result {
	m.resetRun()
	return m.run(maxCycles)
}

// resetRun clears the per-run glitch-mapping state.
func (m *Machine) resetRun() {
	m.step = 0
	m.windowIdx = -1
	m.windowStart = 0
	m.ring = [ringSlots]slot{}
}

// run is the machine's main loop, continuing from the current machine and
// board state (Run and RunFrom both funnel into it).
func (m *Machine) run(maxCycles uint64) Result {
	cpu := m.Board.CPU

	for {
		pc := cpu.PC()
		if tag, ok := m.stopAt(pc); ok {
			return m.result(StopHit, tag, 0)
		}
		if cpu.Cycles >= maxCycles {
			return m.result(StopHung, "", 0)
		}
		if m.MaxSteps > 0 && cpu.Steps >= m.MaxSteps {
			return m.result(StopHung, "", 0)
		}

		// Map glitched cycles in this instruction's execute window to
		// pipeline effects. An instruction that starts at or after the
		// end of the injector's support cannot be glitched, so it skips
		// the mapping altogether.
		if g := m.Glitch; g.At != nil && m.windowIdx >= 0 &&
			int64(cpu.Cycles)-int64(m.windowStart) < int64(g.To) {
			if in, ok := m.peek(pc); ok {
				cost := cpu.CostOf(in)
				start := cpu.Cycles
				for c := 0; c < cost; c++ {
					rel := int(int64(start) + int64(c) - int64(m.windowStart))
					if rel < g.From || rel < 0 {
						continue
					}
					ev, hit := g.At(rel, m.windowIdx)
					if !hit {
						continue
					}
					m.dispatch(ev)
				}
			}
		}

		m.curStep = m.step
		m.curStepFetch = false
		_, err := cpu.Step()
		*m.slotAt(m.step) = slot{}
		m.step++
		if err != nil {
			var fault *emu.Fault
			if errors.As(err, &fault) {
				return m.result(StopFault, "", fault.Kind)
			}
			return m.result(StopFault, "", emu.FaultNone)
		}
	}
}

func (m *Machine) dispatch(ev Event) {
	switch ev.Kind {
	case EventFetchCorrupt:
		// The word in the fetch stage belongs to the instruction two
		// issue slots ahead.
		if s := m.slotAt(m.step + fetchAhead); !s.hasInst {
			s.inst, s.hasInst = ev, true
		}
	case EventExecCorrupt:
		if s := m.slotAt(m.step); !s.hasInst {
			s.inst, s.hasInst = ev, true
		}
	case EventDataCorrupt:
		s := m.slotAt(m.step)
		s.data, s.hasData = ev, true
	case EventSkip:
		m.slotAt(m.step).skip = true
	case EventRegCorrupt:
		r := ev.Reg & 7
		m.Board.CPU.R[r] = ev.applyData(m.Board.CPU.R[r])
	case EventPCCorrupt:
		pc := m.Board.CPU.R[isa.PC]
		m.Board.CPU.R[isa.PC] = ev.applyData(pc) &^ 1
	}
}

// Snapshot is a restorable capture of a machine, its CPU and its board at
// the trigger point, letting a glitch campaign replay only the post-trigger
// window instead of re-simulating the whole boot prologue per attempt.
type Snapshot struct {
	cpu         emu.CPUState
	mem         *emu.MemSnapshot
	step        uint64
	windowStart uint64
	windowIdx   int
	trigCount   int
	trigCycle   uint64
	flashWrites int
}

// SnapshotAtTrigger resets the board and runs — glitch-free — until the
// first trigger write retires, then captures a Snapshot at exactly that
// point. The capture sits at relative cycle 0 of the glitch window: the
// trigger hook sets windowStart to the trigger store's completion cycle, so
// no injector event can apply to any cycle before the snapshot (the glitch
// mapping is gated on a non-negative window index, which only the trigger
// itself establishes). The prologue is therefore injector-independent and
// RunFrom(s, ...) is byte-identical to a full Run with the same injector.
//
// It returns nil if the run stops, faults or exhausts its budgets before
// any trigger fires; callers fall back to full runs in that case.
//
// The snapshot's memory capture arms dirty-page tracking on the board's
// writable regions; from then on the board must only be re-run through
// RunFrom. A Board.Reset would repaint SRAM outside the
// CPU store path, invisibly to the tracking, and stale data would survive
// the next restore.
func (m *Machine) SnapshotAtTrigger(maxCycles uint64) *Snapshot {
	m.Board.Reset()
	m.resetRun()
	cpu := m.Board.CPU
	for m.windowIdx < 0 {
		if _, ok := m.stopAt(cpu.PC()); ok {
			return nil
		}
		if cpu.Cycles >= maxCycles {
			return nil
		}
		if m.MaxSteps > 0 && cpu.Steps >= m.MaxSteps {
			return nil
		}
		m.curStep = m.step
		m.curStepFetch = false
		if _, err := cpu.Step(); err != nil {
			return nil
		}
		m.step++
	}
	return &Snapshot{
		cpu:         cpu.State(),
		mem:         m.Board.Mem.Snapshot(),
		step:        m.step,
		windowStart: m.windowStart,
		windowIdx:   m.windowIdx,
		trigCount:   m.Board.TriggerCount,
		trigCycle:   m.Board.TriggerCycle,
		flashWrites: m.Board.FlashWrites,
	}
}

// RunFrom rewinds the machine, CPU, memory and board trigger bookkeeping
// to the captured trigger point and runs to completion. maxCycles is the
// same absolute cycle budget a full Run would get; the cycles already
// spent reaching the snapshot count against it, so results match a full
// run.
func (m *Machine) RunFrom(s *Snapshot, maxCycles uint64) Result {
	m.resetRun()
	m.step = s.step
	m.windowStart = s.windowStart
	m.windowIdx = s.windowIdx
	m.Board.CPU.SetState(s.cpu)
	s.mem.Restore()
	m.Board.TriggerCount = s.trigCount
	m.Board.TriggerCycle = s.trigCycle
	m.Board.FlashWrites = s.flashWrites
	return m.run(maxCycles)
}

func (m *Machine) result(reason StopReason, tag string, fault emu.FaultKind) Result {
	cpu := m.Board.CPU
	return Result{
		Reason: reason,
		Tag:    tag,
		Fault:  fault,
		Regs:   cpu.R,
		Cycles: cpu.Cycles,
		Steps:  cpu.Steps,
	}
}
