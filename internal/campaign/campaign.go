// Package campaign implements the paper's Section IV emulation study: it
// exhaustively perturbs each conditional-branch encoding with every possible
// bit mask, executes the resulting program on the Thumb emulator, and
// classifies the outcome into the same taxonomy as Figure 2 (success, bad
// read, invalid instruction, bad fetch, failed, no effect).
package campaign

import (
	"errors"
	"fmt"

	"glitchlab/internal/emu"
	"glitchlab/internal/isa"
	"glitchlab/internal/mutate"
	"glitchlab/internal/runctl"
)

// Outcome classifies a single perturbed execution, matching Figure 2's
// categories.
type Outcome uint8

// Outcomes in the order Figure 2's legends list them.
const (
	Success     Outcome = iota // the guarded (normally skipped) path ran
	BadRead                    // read from unmapped memory
	InvalidInst                // perturbed encoding was not a valid instruction
	BadFetch                   // instruction fetch left mapped memory
	Failed                     // any other error (hang, bad write, trap...)
	NoEffect                   // program behaved as if unmodified
	numOutcomes
)

// NumOutcomes is the number of outcome categories.
const NumOutcomes = int(numOutcomes)

var outcomeNames = [...]string{
	"Success", "Bad Read", "Invalid Instruction", "Bad Fetch",
	"Failed", "No Effect",
}

// String returns the Figure 2 legend name of the outcome.
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("outcome%d", uint8(o))
}

// Markers the snippets place in registers, as in the paper: a successful
// glitch leaves 0xdead in R6, a normal execution leaves 0xaaaa in R7.
const (
	SuccessMarker = 0xdead
	NormalMarker  = 0xaaaa
	markerSuccess = isa.R6
	markerNormal  = isa.R7
)

// condSetup returns assembly that establishes flags making the condition
// true, so the branch is architecturally taken in the unmodified program.
func condSetup(c isa.Cond) string {
	switch c {
	case isa.EQ, isa.VC, isa.LS, isa.LE:
		return "movs r0, #0\n cmp r0, #0"
	case isa.NE, isa.CS, isa.PL, isa.GE:
		return "movs r0, #1\n cmp r0, #0"
	case isa.CC, isa.MI, isa.LT:
		return "movs r0, #0\n cmp r0, #1"
	case isa.HI, isa.GT:
		return "movs r0, #2\n cmp r0, #1"
	case isa.VS:
		// 0x80000000 - 1 overflows: N clear, V set.
		return "movs r0, #1\n lsls r0, r0, #31\n cmp r0, #1"
	default:
		return "movs r0, #0\n cmp r0, #0"
	}
}

// Snippet returns the paper-style test program for one conditional branch:
// the branch is taken under normal execution; the fall-through path (the
// code a glitch would illegitimately execute) builds the success marker.
func Snippet(c isa.Cond) string {
	return condSetup(c) + "\n" +
		"	b" + c.String() + " taken\n" +
		"	movs r6, #0xde\n" +
		"	lsls r6, r6, #8\n" +
		"	adds r6, #0xad\n" +
		"	b end\n" +
		"taken:\n" +
		"	movs r7, #0xaa\n" +
		"	lsls r7, r7, #8\n" +
		"	adds r7, #0xaa\n" +
		"end:\n" +
		"	nop\n"
}

// PaddedSnippet is Snippet with permanently-undefined (UDF) words filling
// every position straight-line execution does not reach: behind the
// unconditional branch, around the landing pads, and after the stop
// address. It tests the paper's second ISA-hardening hypothesis from
// Section IV — "adding invalid instructions in between valid instructions
// would likely thwart many glitching attempts" — which the paper could
// not evaluate without fabricating a chip, but emulation can.
func PaddedSnippet(c isa.Cond) string {
	return condSetup(c) + "\n" +
		"	b" + c.String() + " taken\n" +
		"	movs r6, #0xde\n" +
		"	lsls r6, r6, #8\n" +
		"	adds r6, #0xad\n" +
		"	b end\n" +
		"	udf 0\n	udf 0\n	udf 0\n	udf 0\n" +
		"taken:\n" +
		"	movs r7, #0xaa\n" +
		"	lsls r7, r7, #8\n" +
		"	adds r7, #0xaa\n" +
		"	b end\n" +
		"	udf 0\n	udf 0\n	udf 0\n	udf 0\n" +
		"end:\n" +
		"	nop\n" +
		"	udf 0\n	udf 0\n	udf 0\n	udf 0\n" +
		"	udf 0\n	udf 0\n	udf 0\n	udf 0\n"
}

// Target memory layout for campaign programs. Flash is a single small
// page, as in the paper's Unicorn setup: corrupted branches whose targets
// leave the page raise a bad fetch (conditional-branch range is +-256
// bytes, so a 256-byte page makes out-of-page targets reachable).
const (
	flashBase = 0x0000_0000
	flashSize = 0x100
	ramBase   = 0x2000_0000
	ramSize   = 0x1000
	stackTop  = ramBase + ramSize
	maxSteps  = 512
)

// Runner executes mutation campaigns for one conditional branch.
//
// The runner replays every mutated execution from a snapshot taken at the
// branch under test (the trigger point): the harness prologue — condition
// setup through the instruction before the branch — is architecturally
// identical across all 65536 mutations of the branch halfword, so it is
// simulated once in newRunner and each execution restores the captured
// registers/flags/counters plus any dirtied RAM pages and runs only the
// glitched window. Outcomes, retired-step counts and post-mortem registers
// are byte-identical to running the whole program from reset (the replay
// equivalence tests pin this); FullRun switches back to from-reset runs
// for verification.
type Runner struct {
	cond       isa.Cond
	prog       *isa.Program
	branchAddr uint32
	branchOff  uint32 // offset of the branch halfword in prog.Code
	original   uint16
	stop       uint32
	cpu        *emu.CPU
	mem        *emu.Memory
	flash      *emu.Region

	snap    emu.CPUState     // CPU state at the branch, post-prologue
	memSnap *emu.MemSnapshot // RAM copy at the branch, dirty-page tracked

	// memo caches outcomes per mutated word (ARMORY-style convergence
	// pruning, ROADMAP item 2c at word granularity): under replay every
	// execution of the same word starts from the identical snapshot, so
	// its outcome is a pure function of the word. Only unobserved runs use
	// it — observed runs execute every mask for real, so traces and
	// histograms are never synthesized.
	memo []uint8 // word -> Outcome+1; 0 = not yet simulated

	// FullRun disables trigger-point replay and memoization: every
	// execution reruns the prologue from reset. Results are identical
	// either way; the flag exists so CI can prove that cheaply.
	FullRun bool

	// Obs instruments every execution when non-nil; the nil default keeps
	// the sweep hot path bare.
	Obs *Observer
}

// NewRunner assembles the snippet for cond and prepares an emulator.
// zeroInvalid applies Figure 2c's hypothetical ISA hardening, where the
// all-zero encoding is an invalid instruction.
func NewRunner(cond isa.Cond, zeroInvalid bool) (*Runner, error) {
	return newRunner(cond, Snippet(cond), zeroInvalid)
}

// NewPaddedRunner builds a runner over PaddedSnippet, the Section IV
// UDF-interleaving hardening experiment.
func NewPaddedRunner(cond isa.Cond, zeroInvalid bool) (*Runner, error) {
	return newRunner(cond, PaddedSnippet(cond), zeroInvalid)
}

func newRunner(cond isa.Cond, src string, zeroInvalid bool) (*Runner, error) {
	prog, err := isa.Assemble(flashBase, src)
	if err != nil {
		return nil, fmt.Errorf("campaign: assemble %v snippet: %w", cond, err)
	}
	stop, ok := prog.SymbolAddr("end")
	if !ok {
		return nil, errors.New("campaign: snippet has no end label")
	}
	// The branch under test is the instruction before the success path,
	// i.e. the first b<cond>. Find it by decoding.
	var branchAddr uint32
	found := false
	for _, addr := range prog.InstAddrs {
		off := addr - flashBase
		hw := uint16(prog.Code[off]) | uint16(prog.Code[off+1])<<8
		in := isa.Decode(hw, 0)
		if in.Op == isa.OpBCond && in.Cond == cond {
			branchAddr = addr
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("campaign: no b%v in snippet", cond)
	}

	mem := emu.NewMemory()
	flash, err := mem.Map("flash", flashBase, flashSize, emu.PermRead|emu.PermExec)
	if err != nil {
		return nil, err
	}
	if _, err := mem.Map("ram", ramBase, ramSize, emu.PermRead|emu.PermWrite); err != nil {
		return nil, err
	}
	if err := mem.Write(flashBase, prog.Code); err != nil {
		return nil, err
	}
	off := branchAddr - flashBase
	r := &Runner{
		cond:       cond,
		prog:       prog,
		branchAddr: branchAddr,
		branchOff:  off,
		original:   uint16(prog.Code[off]) | uint16(prog.Code[off+1])<<8,
		stop:       stop,
		cpu:        emu.New(mem),
		mem:        mem,
		flash:      flash,
	}
	r.cpu.ZeroIsInvalid = zeroInvalid

	// Run the harness prologue once and snapshot at the branch: cpu.Run
	// stops when PC reaches the branch address, before the (to-be-mutated)
	// branch itself executes. The prologue is pure register/flag setup, so
	// this cannot fault; a step-limit error would mean the snippet changed
	// shape and is a programming error.
	r.cpu.Reset(stackTop, flashBase)
	if err := r.cpu.Run(branchAddr, maxSteps); err != nil {
		return nil, fmt.Errorf("campaign: %v prologue failed: %w", cond, err)
	}
	r.snap = r.cpu.State()
	r.memSnap = mem.Snapshot()
	return r, nil
}

// BranchEncoding returns the unperturbed encoding of the branch under test.
func (r *Runner) BranchEncoding() uint16 { return r.original }

// RunOne executes the snippet with the branch halfword replaced by word and
// classifies the result. The pristine image is restored before returning —
// even if the execution panics — so callers can interleave RunOne with
// direct flash inspection.
func (r *Runner) RunOne(word uint16) Outcome {
	defer r.restoreBranch()
	out, _ := r.runOne(word)
	return out
}

// restoreBranch puts the unperturbed branch encoding back into flash. The
// sweep loop mutates flash directly (bypassing the CPU store path, so
// dirty-page tracking cannot see it); every unit of work defers exactly
// one restoreBranch so a panicking execution — quarantined and resumed by
// runctl — can never leak a corrupted image into later executions.
func (r *Runner) restoreBranch() {
	r.flash.Data[r.branchOff] = byte(r.original)
	r.flash.Data[r.branchOff+1] = byte(r.original >> 8)
}

// runOne executes one mutation and additionally returns the raising fault
// (nil for clean or hung executions), which the observer counts and
// records as the trace fault class. It deliberately does NOT restore the
// branch halfword: the next mutation overwrites it anyway, and the
// enclosing unit of work
// (sweepFlips, RunOne) holds the single deferred restoreBranch that makes
// restoration panic-safe without a per-execution defer closure.
func (r *Runner) runOne(word uint16) (Outcome, *emu.Fault) {
	// Memoization would falsify observation: observed runs must produce a
	// real trace record per mask, so they run every mask for real.
	memo := !r.FullRun && r.Obs == nil
	if memo {
		if r.memo == nil {
			r.memo = make([]uint8, 1<<16)
		} else if o := r.memo[word]; o != 0 {
			return Outcome(o - 1), nil
		}
	}
	r.flash.Data[r.branchOff] = byte(word)
	r.flash.Data[r.branchOff+1] = byte(word >> 8)
	out, fault := r.execute()
	if memo {
		r.memo[word] = uint8(out) + 1
	}
	return out, fault
}

// execute runs the mutated image — from the trigger-point snapshot, or
// from reset when FullRun — and classifies the result.
func (r *Runner) execute() (Outcome, *emu.Fault) {
	var err error
	if r.FullRun {
		r.cpu.Reset(stackTop, flashBase)
		err = r.cpu.Run(r.stop, maxSteps)
	} else {
		r.cpu.SetState(r.snap)
		r.memSnap.Restore()
		err = r.cpu.Run(r.stop, maxSteps-r.snap.Steps)
	}
	return classify(r.cpu, err)
}

func classify(c *emu.CPU, err error) (Outcome, *emu.Fault) {
	if err != nil {
		// Run returns bare *emu.Fault values; the type assertion keeps the
		// per-execution path off errors.As's reflection (which profiled at
		// a measurable share of whole campaigns). The errors.As fallback
		// stays for wrapped errors from future callers.
		fault, ok := err.(*emu.Fault)
		if !ok && !errors.As(err, &fault) {
			return Failed, nil // step limit or other unrecognized error
		}
		switch fault.Kind {
		case emu.FaultBadRead:
			return BadRead, fault
		case emu.FaultBadFetch:
			return BadFetch, fault
		case emu.FaultInvalidInst, emu.FaultUndefined:
			return InvalidInst, fault
		default:
			return Failed, fault
		}
	}
	switch {
	case c.R[markerSuccess] == SuccessMarker:
		return Success, nil
	case c.R[markerNormal] == NormalMarker:
		return NoEffect, nil
	default:
		return Failed, nil
	}
}

// FlipResult accumulates outcome counts for one flip count k.
type FlipResult struct {
	Flips  int // number of bits flipped (k)
	Counts [NumOutcomes]uint64
	Total  uint64
}

// SuccessRate returns the fraction of runs classified Success.
func (f FlipResult) SuccessRate() float64 {
	if f.Total == 0 {
		return 0
	}
	return float64(f.Counts[Success]) / float64(f.Total)
}

// CondResult holds the full sweep for one conditional branch.
type CondResult struct {
	Cond    isa.Cond
	Model   mutate.Model
	ByFlips []FlipResult // index k = 0..16
	Totals  [NumOutcomes]uint64
	Runs    uint64
}

// SuccessRate returns the overall success fraction across all masks with at
// least one flipped bit (k=0 is the unmodified control and excluded, as in
// the paper's figure).
func (c CondResult) SuccessRate() float64 {
	var succ, total uint64
	for k := 1; k < len(c.ByFlips); k++ {
		succ += c.ByFlips[k].Counts[Success]
		total += c.ByFlips[k].Total
	}
	if total == 0 {
		return 0
	}
	return float64(succ) / float64(total)
}

// Sweep runs the exhaustive mutation campaign for one condition under one
// model. maxFlips bounds k (pass 16 for the full sweep; smaller values give
// proportionally cheaper partial sweeps for benchmarks).
func (r *Runner) Sweep(model mutate.Model, maxFlips int) CondResult {
	if maxFlips > 16 {
		maxFlips = 16
	}
	if r.Obs != nil {
		defer r.Obs.tracer.StartSpan("campaign.sweep", map[string]any{
			"cond": "b" + r.cond.String(), "model": model.String(),
		}).End()
	}
	res := CondResult{Cond: r.cond, Model: model}
	for k := 0; k <= maxFlips; k++ {
		var key string // names the observed unit, seeding its sampling
		if r.Obs != nil {
			key = fmt.Sprintf("sweep cond=b%v model=%s k=%d", r.cond, model, k)
		}
		fr, ob := r.sweepFlips(model, k, key)
		r.Obs.merge(r.cond, model, fr, ob)
		res.merge(fr)
	}
	return res
}

// sweepFlips runs every mask of one flip count — the unit of work the
// parallel campaign engine shards by. When the runner is observed it also
// returns the unit's observation; key, the unit's name, seeds its trace
// sampling. The single deferred restoreBranch is what makes mutation
// restore panic-safe: each execution's flash write overwrites the
// previous one, so only the last mutation is ever live, and the defer
// runs during unwinding before runctl's Protect recovers — a quarantined
// unit can never leave a corrupted image behind.
func (r *Runner) sweepFlips(model mutate.Model, k int, key string) (FlipResult, *unitObs) {
	defer r.restoreBranch()
	fr := FlipResult{Flips: k}
	ob := r.Obs.unit(key)
	mutate.Masks(16, k, func(mask uint16) bool {
		word := model.Apply(r.original, mask)
		out, fault := r.runOne(word)
		fr.Counts[out]++
		fr.Total++
		if ob != nil {
			ob.record(r, mask, word, out, fault)
		}
		return true
	})
	return fr, ob
}

// merge appends one flip count's results. FlipResults must arrive in
// ascending-k order, which is what makes sweeps byte-identical at any
// worker count after the ordered merge.
func (c *CondResult) merge(fr FlipResult) {
	for o, n := range fr.Counts {
		c.Totals[o] += n
	}
	c.Runs += fr.Total
	c.ByFlips = append(c.ByFlips, fr)
}

// Config selects a Figure 2 campaign variant.
type Config struct {
	Model       mutate.Model
	ZeroInvalid bool // Figure 2c: treat all-zero encoding as invalid
	PadUDF      bool // Section IV hypothesis: UDF-fill unreachable slots
	MaxFlips    int  // bound on flipped bits (16 = exhaustive)

	// FullRun disables trigger-point snapshot replay (and the word-level
	// outcome memoization that depends on it): every mutated execution
	// reruns the harness prologue from reset. Results are byte-identical
	// either way — the ci.sh replay gate cmp-proves it — so the flag is
	// excluded from the runctl config hash, like Workers.
	FullRun bool

	// Workers shards the campaign across goroutines by (condition,
	// flip-count) work units; each worker runs its units on its own
	// emulators, and the merge preserves BranchConds/ascending-k order, so
	// results are byte-identical at any worker count. <= 1 runs one
	// worker.
	Workers int

	// Obs, when non-nil, instruments every execution of the campaign
	// (counters, steps histogram, progress ticks, trace records). Each
	// unit returns its observation with its result, and Run merges them in
	// unit order, so metrics and traces do not depend on the worker count.
	// An observed resume reruns every unit checkpointed without an
	// observation kept at the same trace settings.
	Obs *Observer

	// Run, when non-nil, is the run controller: cancellation is checked
	// between (condition, flip-count) work units, every completed unit is
	// checkpointed (and skipped on resume), and a panicking unit is
	// quarantined instead of crashing the campaign. nil keeps the bare
	// library behavior: no checkpoints, panics propagate.
	Run *runctl.Run
}

// unitKey names one (condition, flip-count) work unit in the checkpoint.
// The campaign variant is part of the key, so several variants (e.g.
// glitchemu's four Figure 2 configurations) can share one run directory.
func (cfg Config) unitKey(cond isa.Cond, k int) string {
	return fmt.Sprintf("campaign model=%s zero=%t pad=%t cond=b%v k=%d",
		cfg.Model, cfg.ZeroInvalid, cfg.PadUDF, cond, k)
}

// PlannedRuns returns the number of executions a campaign over all
// conditional branches will perform — the progress denominator.
func PlannedRuns(maxFlips int) uint64 {
	if maxFlips <= 0 || maxFlips > 16 {
		maxFlips = 16
	}
	var perCond uint64
	for k := 0; k <= maxFlips; k++ {
		perCond += mutate.Binomial(16, k)
	}
	return perCond * uint64(len(isa.BranchConds()))
}

// Run executes the campaign for every conditional branch and returns
// results in the BranchConds order. Before returning it asserts the
// outcome accounting invariant on every result, so rendered totals and
// observer counters can never drift apart silently.
//
// With cfg.Run set, an interrupted campaign returns the conditions whose
// units all completed, together with an error wrapping runctl.ErrInterrupted;
// a campaign with quarantined (panicked) units returns the clean conditions
// plus a *runctl.QuarantineError naming the poisoned units. Both kinds of
// partial result sets skip the accounting check — it holds only for
// complete sweeps.
func Run(cfg Config) ([]CondResult, error) {
	if cfg.MaxFlips <= 0 {
		cfg.MaxFlips = 16
	}
	if cfg.Obs != nil {
		cfg.Obs.total = PlannedRuns(cfg.MaxFlips)
		defer cfg.Obs.finish()
		defer cfg.Obs.tracer.StartSpan("campaign.run", map[string]any{
			"model":        cfg.Model.String(),
			"zero_invalid": cfg.ZeroInvalid,
			"pad_udf":      cfg.PadUDF,
			"max_flips":    cfg.MaxFlips,
		}).End()
	}
	results, err := runUnits(cfg)
	if err != nil {
		return results, err
	}
	if err := cfg.Run.FinishErr(); err != nil {
		return results, err
	}
	if err := VerifyAccounting(results); err != nil {
		return nil, err
	}
	return results, nil
}

// newRunnerFor builds the campaign variant's runner for one condition.
func newRunnerFor(cfg Config, cond isa.Cond) (*Runner, error) {
	var r *Runner
	var err error
	if cfg.PadUDF {
		r, err = NewPaddedRunner(cond, cfg.ZeroInvalid)
	} else {
		r, err = NewRunner(cond, cfg.ZeroInvalid)
	}
	if r != nil {
		r.FullRun = cfg.FullRun
		r.Obs = cfg.Obs
	}
	return r, err
}

// CheckAccounting verifies the result's internal bookkeeping: every
// FlipResult's per-outcome counts sum to the number of masks tried for
// that flip count (C(16, k)), the outcome totals equal the per-k sums,
// and Runs equals the grand total. This is the invariant that keeps
// observer counters and Figure 2 totals in lockstep.
func (c CondResult) CheckAccounting() error {
	var totals [NumOutcomes]uint64
	var runs uint64
	for _, fr := range c.ByFlips {
		var sum uint64
		for o, n := range fr.Counts {
			sum += n
			totals[o] += n
		}
		if sum != fr.Total {
			return fmt.Errorf("campaign: b%v k=%d outcome counts sum to %d, %d masks tried",
				c.Cond, fr.Flips, sum, fr.Total)
		}
		if want := mutate.Binomial(16, fr.Flips); fr.Total != want {
			return fmt.Errorf("campaign: b%v k=%d tried %d masks, want C(16,%d)=%d",
				c.Cond, fr.Flips, fr.Total, fr.Flips, want)
		}
		runs += fr.Total
	}
	if totals != c.Totals {
		return fmt.Errorf("campaign: b%v outcome totals %v drifted from per-k sums %v",
			c.Cond, c.Totals, totals)
	}
	if runs != c.Runs {
		return fmt.Errorf("campaign: b%v runs=%d but per-k totals sum to %d",
			c.Cond, c.Runs, runs)
	}
	return nil
}

// VerifyAccounting checks the accounting invariant across a whole campaign.
func VerifyAccounting(results []CondResult) error {
	for _, res := range results {
		if err := res.CheckAccounting(); err != nil {
			return err
		}
	}
	return nil
}
