package emu

import (
	"errors"
	"fmt"

	"glitchlab/internal/isa"
)

// FaultKind classifies an execution fault, mirroring the taxonomy used by
// the paper's emulation campaign.
type FaultKind uint8

// Fault kinds.
const (
	FaultNone        FaultKind = iota
	FaultBadRead               // data read from unmapped/unreadable memory
	FaultBadWrite              // data write to unmapped/unwritable memory
	FaultBadFetch              // instruction fetch from unmapped memory
	FaultInvalidInst           // encoding the architecture leaves undefined
	FaultUnaligned             // unaligned data access (HardFault on M0)
	FaultUndefined             // UDF instruction executed
	FaultBreakpoint            // BKPT executed
	FaultSupervisor            // SVC executed
)

var faultNames = [...]string{
	"none", "bad read", "bad write", "bad fetch", "invalid instruction",
	"unaligned access", "undefined instruction", "breakpoint", "svc",
}

// String returns a human-readable fault name.
func (k FaultKind) String() string {
	if int(k) < len(faultNames) {
		return faultNames[k]
	}
	return fmt.Sprintf("fault%d", uint8(k))
}

// Fault is the error returned when execution raises a hardware fault.
type Fault struct {
	Kind FaultKind
	Addr uint32 // faulting data/fetch address
	PC   uint32 // address of the faulting instruction
}

func (f *Fault) Error() string {
	return fmt.Sprintf("emu: %s at pc=%#x addr=%#x", f.Kind, f.PC, f.Addr)
}

// ErrStepLimit is returned by Run when the step budget is exhausted without
// reaching the stop address (the program is considered hung).
var ErrStepLimit = errors.New("emu: step limit exceeded")

// Hooks are optional callbacks the pipeline and glitcher use to observe and
// perturb execution. All hooks may be nil.
type Hooks struct {
	// FetchOverride can replace an instruction halfword as it is fetched
	// (transient corruption: memory itself is not modified).
	FetchOverride func(addr uint32, hw uint16) uint16
	// LoadOverride can replace data as it is loaded from memory.
	LoadOverride func(addr uint32, size uint32, val uint32) uint32
	// OnStore observes completed data stores (peripheral side effects
	// such as the GPIO trigger and flash programming latch onto this).
	OnStore func(addr uint32, size uint32, val uint32)
	// OnExec observes each instruction immediately before it executes.
	OnExec func(addr uint32, in isa.Inst)
}

// CPU is an ARMv6-M Thumb core.
type CPU struct {
	R     [16]uint32 // core registers; R[15] is the current instruction address
	Flags isa.Flags
	Mem   *Memory
	Hooks Hooks

	// ZeroIsInvalid makes the all-zero halfword decode as an invalid
	// instruction instead of its architectural "movs r0, r0" meaning.
	// Figure 2c uses this to test the paper's ISA-hardening hypothesis.
	ZeroIsInvalid bool

	// Cycles counts executed clock cycles using Cortex-M0 costs.
	Cycles uint64
	// Steps counts retired instructions.
	Steps uint64

	// fetchRegion caches the region the last instruction fetch hit, so
	// straight-line execution skips the memory map's linear region search.
	// Regions are immutable once mapped and a CPU stays attached to one
	// Memory, so the cache never goes stale; Reset clears it anyway.
	fetchRegion *Region
}

// New returns a CPU attached to the given memory.
func New(mem *Memory) *CPU {
	return &CPU{Mem: mem}
}

// Reset clears registers, flags and counters, and sets SP and PC.
func (c *CPU) Reset(sp, pc uint32) {
	c.R = [16]uint32{}
	c.Flags = isa.Flags{}
	c.Cycles = 0
	c.Steps = 0
	c.fetchRegion = nil
	c.R[isa.SP] = sp
	c.R[isa.PC] = pc &^ 1
}

// PC returns the current instruction address.
func (c *CPU) PC() uint32 { return c.R[isa.PC] }

func (c *CPU) fetch16(addr uint32) (uint16, error) {
	if addr%2 != 0 {
		return 0, &Fault{Kind: FaultBadFetch, Addr: addr, PC: addr}
	}
	r := c.fetchRegion
	if r == nil || !r.contains(addr, 2) {
		var ok bool
		r, ok = c.Mem.Region(addr, 2)
		if !ok || r.Perm&PermExec == 0 {
			return 0, &Fault{Kind: FaultBadFetch, Addr: addr, PC: addr}
		}
		c.fetchRegion = r // only executable regions are ever cached
	}
	off := addr - r.Base
	hw := uint16(r.Data[off]) | uint16(r.Data[off+1])<<8
	if c.Hooks.FetchOverride != nil {
		hw = c.Hooks.FetchOverride(addr, hw)
	}
	return hw, nil
}

// Step executes one instruction and returns its cycle cost. A fault is
// returned as a bare *Fault; the observers count it from the run's result.
func (c *CPU) Step() (int, error) { return c.step() }

func (c *CPU) step() (int, error) {
	pc := c.R[isa.PC]
	hw, err := c.fetch16(pc)
	if err != nil {
		return 0, err
	}
	var hw2 uint16
	if isa.Is32Bit(hw) {
		hw2, err = c.fetch16(pc + 2)
		if err != nil {
			return 0, err
		}
	}
	if c.ZeroIsInvalid && hw == 0 {
		return 0, &Fault{Kind: FaultInvalidInst, Addr: pc, PC: pc}
	}
	in := isa.Decode(hw, hw2)
	if in.Op == isa.OpInvalid {
		return 0, &Fault{Kind: FaultInvalidInst, Addr: pc, PC: pc}
	}
	if c.Hooks.OnExec != nil {
		c.Hooks.OnExec(pc, in)
	}
	cost, err := c.exec(pc, in)
	if err != nil {
		return 0, err
	}
	c.Steps++
	c.Cycles += uint64(cost)
	return cost, nil
}

// Run executes until PC reaches stop, a fault occurs, or maxSteps
// instructions have retired (returning ErrStepLimit).
func (c *CPU) Run(stop uint32, maxSteps uint64) error {
	stop &^= 1
	for i := uint64(0); i < maxSteps; i++ {
		if c.R[isa.PC] == stop {
			return nil
		}
		if _, err := c.Step(); err != nil {
			return err
		}
	}
	if c.R[isa.PC] == stop {
		return nil
	}
	return ErrStepLimit
}

func (c *CPU) setNZ(v uint32) {
	c.Flags.N = v&0x80000000 != 0
	c.Flags.Z = v == 0
}

// addWithCarry implements the ARM AddWithCarry pseudocode, returning the
// result and updating all four flags.
func (c *CPU) addWithCarry(x, y uint32, carry bool) uint32 {
	ci := uint64(0)
	if carry {
		ci = 1
	}
	usum := uint64(x) + uint64(y) + ci
	ssum := int64(int32(x)) + int64(int32(y)) + int64(ci)
	result := uint32(usum)
	c.Flags.C = usum > 0xFFFFFFFF
	c.Flags.V = ssum != int64(int32(result))
	c.setNZ(result)
	return result
}

func (c *CPU) load(pc, addr, size uint32, signExt bool) (uint32, error) {
	if addr%size != 0 {
		return 0, &Fault{Kind: FaultUnaligned, Addr: addr, PC: pc}
	}
	v, _, ok := c.Mem.load(addr, size)
	if !ok {
		return 0, &Fault{Kind: FaultBadRead, Addr: addr, PC: pc}
	}
	if c.Hooks.LoadOverride != nil {
		v = c.Hooks.LoadOverride(addr, size, v)
		if size < 4 {
			v &= 1<<(8*size) - 1 // overrides cannot widen the access
		}
	}
	if signExt {
		shift := 32 - 8*size
		v = uint32(int32(v<<shift) >> shift)
	}
	return v, nil
}

func (c *CPU) store(pc, addr, size, val uint32) error {
	if addr%size != 0 {
		return &Fault{Kind: FaultUnaligned, Addr: addr, PC: pc}
	}
	if _, ok := c.Mem.store(addr, size, val); !ok {
		return &Fault{Kind: FaultBadWrite, Addr: addr, PC: pc}
	}
	if c.Hooks.OnStore != nil {
		c.Hooks.OnStore(addr, size, val)
	}
	return nil
}

// reg reads a register with architectural PC semantics (PC reads as the
// instruction address plus 4).
func (c *CPU) reg(pc uint32, r isa.Reg) uint32 {
	if r == isa.PC {
		return pc + 4
	}
	return c.R[r]
}

func bitCount(regs uint16) uint32 {
	n := uint32(0)
	for regs != 0 {
		n += uint32(regs & 1)
		regs >>= 1
	}
	return n
}
