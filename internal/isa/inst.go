package isa

import (
	"fmt"
	"strings"
)

// Op identifies a decoded Thumb operation.
type Op uint8

// Thumb-16 (plus BL) operations. The names follow the unified assembler
// mnemonics; flag-setting forms carry the S suffix implicitly (all Thumb-16
// data-processing instructions outside the hi-register group set flags).
const (
	OpInvalid Op = iota
	OpLSLImm     // lsls rd, rm, #imm5
	OpLSRImm     // lsrs rd, rm, #imm5
	OpASRImm     // asrs rd, rm, #imm5
	OpADDReg     // adds rd, rn, rm
	OpSUBReg     // subs rd, rn, rm
	OpADDImm3    // adds rd, rn, #imm3
	OpSUBImm3    // subs rd, rn, #imm3
	OpMOVImm     // movs rd, #imm8
	OpCMPImm     // cmp rn, #imm8
	OpADDImm8    // adds rd, #imm8
	OpSUBImm8    // subs rd, #imm8

	// Data-processing, register (format 4).
	OpAND // ands rd, rm
	OpEOR // eors rd, rm
	OpLSLReg
	OpLSRReg
	OpASRReg
	OpADC
	OpSBC
	OpRORReg
	OpTST
	OpRSB // rsbs rd, rn, #0 (NEG)
	OpCMPReg
	OpCMN
	OpORR
	OpMUL
	OpBIC
	OpMVN

	// Hi-register operations and branch-exchange (format 5).
	OpADDHi // add rd, rm (no flags)
	OpCMPHi // cmp rn, rm
	OpMOVHi // mov rd, rm (no flags)
	OpBX
	OpBLX

	OpLDRLit // ldr rd, [pc, #imm8*4]

	// Load/store register offset (format 7/8).
	OpSTRReg
	OpSTRHReg
	OpSTRBReg
	OpLDRSB
	OpLDRReg
	OpLDRHReg
	OpLDRBReg
	OpLDRSH

	// Load/store immediate offset (formats 9/10).
	OpSTRImm  // str rd, [rn, #imm5*4]
	OpLDRImm  // ldr rd, [rn, #imm5*4]
	OpSTRBImm // strb rd, [rn, #imm5]
	OpLDRBImm // ldrb rd, [rn, #imm5]
	OpSTRHImm // strh rd, [rn, #imm5*2]
	OpLDRHImm // ldrh rd, [rn, #imm5*2]

	OpSTRSP // str rd, [sp, #imm8*4]
	OpLDRSP // ldr rd, [sp, #imm8*4]
	OpADR   // add rd, pc, #imm8*4
	OpADDSP // add rd, sp, #imm8*4

	OpADDSPImm // add sp, #imm7*4
	OpSUBSPImm // sub sp, #imm7*4

	OpSXTH
	OpSXTB
	OpUXTH
	OpUXTB
	OpREV
	OpREV16
	OpREVSH
	OpPUSH
	OpPOP
	OpBKPT
	OpNOP // hint family: nop/yield/wfe/wfi/sev all execute as nop here
	OpCPS
	OpSTM // stmia rn!, {reglist}
	OpLDM // ldmia rn!, {reglist}

	OpBCond // b<cond> label
	OpUDF   // permanently undefined (0xDExx)
	OpSVC

	OpB  // unconditional branch, 11-bit offset
	OpBL // 32-bit branch with link
)

var opNames = map[Op]string{
	OpInvalid: "<invalid>",
	OpLSLImm:  "lsls", OpLSRImm: "lsrs", OpASRImm: "asrs",
	OpADDReg: "adds", OpSUBReg: "subs", OpADDImm3: "adds", OpSUBImm3: "subs",
	OpMOVImm: "movs", OpCMPImm: "cmp", OpADDImm8: "adds", OpSUBImm8: "subs",
	OpAND: "ands", OpEOR: "eors", OpLSLReg: "lsls", OpLSRReg: "lsrs",
	OpASRReg: "asrs", OpADC: "adcs", OpSBC: "sbcs", OpRORReg: "rors",
	OpTST: "tst", OpRSB: "rsbs", OpCMPReg: "cmp", OpCMN: "cmn",
	OpORR: "orrs", OpMUL: "muls", OpBIC: "bics", OpMVN: "mvns",
	OpADDHi: "add", OpCMPHi: "cmp", OpMOVHi: "mov", OpBX: "bx", OpBLX: "blx",
	OpLDRLit: "ldr",
	OpSTRReg: "str", OpSTRHReg: "strh", OpSTRBReg: "strb", OpLDRSB: "ldrsb",
	OpLDRReg: "ldr", OpLDRHReg: "ldrh", OpLDRBReg: "ldrb", OpLDRSH: "ldrsh",
	OpSTRImm: "str", OpLDRImm: "ldr", OpSTRBImm: "strb", OpLDRBImm: "ldrb",
	OpSTRHImm: "strh", OpLDRHImm: "ldrh",
	OpSTRSP: "str", OpLDRSP: "ldr", OpADR: "adr", OpADDSP: "add",
	OpADDSPImm: "add", OpSUBSPImm: "sub",
	OpSXTH: "sxth", OpSXTB: "sxtb", OpUXTH: "uxth", OpUXTB: "uxtb",
	OpREV: "rev", OpREV16: "rev16", OpREVSH: "revsh",
	OpPUSH: "push", OpPOP: "pop", OpBKPT: "bkpt", OpNOP: "nop", OpCPS: "cps",
	OpSTM: "stmia", OpLDM: "ldmia",
	OpBCond: "b", OpUDF: "udf", OpSVC: "svc",
	OpB: "b", OpBL: "bl",
}

// String returns the base mnemonic for the operation.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// IsLoad reports whether the operation reads data memory.
func (o Op) IsLoad() bool {
	switch o {
	case OpLDRLit, OpLDRSB, OpLDRReg, OpLDRHReg, OpLDRBReg, OpLDRSH,
		OpLDRImm, OpLDRBImm, OpLDRHImm, OpLDRSP, OpPOP, OpLDM:
		return true
	}
	return false
}

// IsStore reports whether the operation writes data memory.
func (o Op) IsStore() bool {
	switch o {
	case OpSTRReg, OpSTRHReg, OpSTRBReg, OpSTRImm, OpSTRBImm, OpSTRHImm,
		OpSTRSP, OpPUSH, OpSTM:
		return true
	}
	return false
}

// Inst is a decoded Thumb instruction.
type Inst struct {
	Op   Op
	Rd   Reg    // destination (or source for stores, Rn for CMP-style)
	Rn   Reg    // first source
	Rm   Reg    // second source
	Imm  uint32 // immediate, already scaled where the encoding scales it
	Cond Cond   // for OpBCond
	Regs uint16 // register list for push/pop (bit 8 = LR/PC)
	Size int    // encoded size in bytes (2 or 4)
	Raw  uint32 // raw encoding (low 16 bits, or full 32 for BL)
}

// BranchTarget returns the branch destination for a PC-relative branch,
// given the address of the instruction. It panics for non-PC-relative ops;
// callers must check Op first.
func (i Inst) BranchTarget(addr uint32) uint32 {
	pc := addr + 4 // Thumb PC reads as instruction address + 4
	switch i.Op {
	case OpBCond:
		off := int32(int8(uint8(i.Imm))) * 2
		return uint32(int32(pc) + off)
	case OpB:
		off := int32(i.Imm<<21) >> 20 // sign-extend 11 bits, scale by 2
		return uint32(int32(pc) + off)
	case OpBL:
		return uint32(int32(pc) + int32(i.Imm))
	}
	panic(fmt.Sprintf("isa: BranchTarget on %v", i.Op))
}

// String disassembles the instruction (address-independent; PC-relative
// targets are rendered as ".+off" style offsets).
func (i Inst) String() string {
	switch i.Op {
	case OpInvalid:
		return fmt.Sprintf("<invalid 0x%04x>", i.Raw)
	case OpLSLImm, OpLSRImm, OpASRImm:
		return fmt.Sprintf("%s %s, %s, #%d", i.Op, i.Rd, i.Rm, i.Imm)
	case OpADDReg, OpSUBReg:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Rd, i.Rn, i.Rm)
	case OpADDImm3, OpSUBImm3:
		return fmt.Sprintf("%s %s, %s, #%d", i.Op, i.Rd, i.Rn, i.Imm)
	case OpMOVImm, OpADDImm8, OpSUBImm8:
		return fmt.Sprintf("%s %s, #%d", i.Op, i.Rd, i.Imm)
	case OpCMPImm:
		return fmt.Sprintf("%s %s, #%d", i.Op, i.Rn, i.Imm)
	case OpAND, OpEOR, OpLSLReg, OpLSRReg, OpASRReg, OpADC, OpSBC, OpRORReg,
		OpORR, OpMUL, OpBIC, OpMVN:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Rd, i.Rm)
	case OpTST, OpCMPReg, OpCMN:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Rn, i.Rm)
	case OpRSB:
		return fmt.Sprintf("%s %s, %s, #0", i.Op, i.Rd, i.Rn)
	case OpADDHi, OpMOVHi:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Rd, i.Rm)
	case OpCMPHi:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Rn, i.Rm)
	case OpBX, OpBLX:
		return fmt.Sprintf("%s %s", i.Op, i.Rm)
	case OpLDRLit:
		return fmt.Sprintf("%s %s, [pc, #%d]", i.Op, i.Rd, i.Imm)
	case OpSTRReg, OpSTRHReg, OpSTRBReg, OpLDRSB, OpLDRReg, OpLDRHReg,
		OpLDRBReg, OpLDRSH:
		return fmt.Sprintf("%s %s, [%s, %s]", i.Op, i.Rd, i.Rn, i.Rm)
	case OpSTRImm, OpLDRImm, OpSTRBImm, OpLDRBImm, OpSTRHImm, OpLDRHImm:
		return fmt.Sprintf("%s %s, [%s, #%d]", i.Op, i.Rd, i.Rn, i.Imm)
	case OpSTRSP, OpLDRSP:
		return fmt.Sprintf("%s %s, [sp, #%d]", i.Op, i.Rd, i.Imm)
	case OpADR:
		return fmt.Sprintf("%s %s, pc, #%d", "add", i.Rd, i.Imm)
	case OpADDSP:
		return fmt.Sprintf("%s %s, sp, #%d", i.Op, i.Rd, i.Imm)
	case OpADDSPImm, OpSUBSPImm:
		return fmt.Sprintf("%s sp, #%d", i.Op, i.Imm)
	case OpSXTH, OpSXTB, OpUXTH, OpUXTB, OpREV, OpREV16, OpREVSH:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Rd, i.Rm)
	case OpPUSH, OpPOP:
		return fmt.Sprintf("%s {%s}", i.Op, regListString(i.Op, i.Regs))
	case OpSTM, OpLDM:
		return fmt.Sprintf("%s %s!, {%s}", i.Op, i.Rn, regListString(i.Op, i.Regs))
	case OpBKPT, OpSVC, OpUDF:
		return fmt.Sprintf("%s #%d", i.Op, i.Imm)
	case OpNOP, OpCPS:
		return i.Op.String()
	case OpBCond:
		return fmt.Sprintf("b%s .%+d", i.Cond, int32(int8(uint8(i.Imm)))*2+4)
	case OpB:
		return fmt.Sprintf("b .%+d", (int32(i.Imm<<21)>>20)+4)
	case OpBL:
		return fmt.Sprintf("bl .%+d", int32(i.Imm)+4)
	}
	return i.Op.String()
}

func regListString(op Op, regs uint16) string {
	var parts []string
	for r := 0; r < 8; r++ {
		if regs&(1<<r) != 0 {
			parts = append(parts, Reg(r).String())
		}
	}
	if regs&(1<<8) != 0 {
		if op == OpPUSH {
			parts = append(parts, "lr")
		} else {
			parts = append(parts, "pc")
		}
	}
	return strings.Join(parts, ", ")
}
