// Package glitcher reproduces the paper's Section V ChipWhisperer
// experiments against a simulated target: a deterministic clock-glitch
// physics model over the paper's parameter space (width and offset, each
// swept over [-49%, +49%] of a clock period, giving the paper's 9,801
// attempts per clock cycle), plus scan drivers for single-glitch (Table I),
// multi-glitch (Table II), long-glitch (Table III) and windowed attacks
// (Table VI).
//
// Figure 1 of the paper defines the three clock-glitch parameters this
// package models: the offset from the trigger (which clock cycle is hit),
// the offset into the clock cycle, and the width of the inserted edge.
//
// The model is deterministic: a given (seed, width, offset, cycle, window)
// always produces the same corruption. This mirrors the paper's laboratory
// setup, where a perfect trigger makes a tuned glitch reproducible
// (Section V-B finds parameters with 10/10 reliability). "Probability"
// materializes as the fraction of the parameter grid that produces a given
// effect, exactly as in the paper's exhaustive scans. Bit flips are
// strongly biased 1→0, the dominant physical effect of clock and voltage
// glitching reported by the paper and its references.
package glitcher

import (
	"math"
	"slices"
	"sync"

	"glitchlab/internal/isa"
	"glitchlab/internal/obs/profile"
	"glitchlab/internal/pipeline"
)

// ParamRange is the half-width of the scanned parameter grid: width and
// offset each range over [-ParamRange, +ParamRange] percent.
const ParamRange = 49

// GridSize is the number of (width, offset) pairs per clock cycle —
// the paper's 9,801 glitching attempts per cycle.
const GridSize = (2*ParamRange + 1) * (2*ParamRange + 1)

// Params identifies one point in the glitch parameter space.
type Params struct {
	Width  int // percent of clock period, -49..49
	Offset int // percent into the clock cycle, -49..49
}

// Model is the deterministic clock-glitch fault model.
type Model struct {
	// Seed diversifies the whole landscape; experiments fix it so tables
	// are exactly reproducible.
	Seed uint64
	// Recharge is the probability that a second glitch in quick
	// succession (window > 0) is physically delivered, modeling the
	// glitch generator's recovery limits that make multi-glitches harder
	// (paper Section V-C).
	Recharge float64

	// Obs, when non-nil, instruments every scan and search driven through
	// this model (attempt/success counters, grid coverage, trace records).
	Obs *Obs

	// Prof, when non-nil, samples phase attribution for every attempt
	// driven through this model's scans: board reset (assemble), the
	// pipeline's glitch-window mapping (trigger-replay) and the emulated
	// run (execute, with the decode share split out by calibrated unit
	// cost). Each scan worker records into its own shard.
	Prof *profile.Profile

	// FullRun makes every scan target re-simulate the boot prologue on
	// each attempt instead of replaying from the trigger-point snapshot.
	// Scan results are byte-identical either way; the flag exists so that
	// equivalence stays checkable end to end (ci.sh compares the two).
	FullRun bool
}

// NewModel returns a model with the calibration used throughout the
// reproduction (documented in DESIGN.md).
func NewModel(seed uint64) *Model {
	return &Model{Seed: seed, Recharge: 0.45}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (m *Model) hash(p Params, rel, window int, salt uint64) uint64 {
	h := m.Seed
	h = splitmix(h ^ uint64(uint32(p.Width))<<32 ^ uint64(uint32(p.Offset)))
	h = splitmix(h ^ uint64(uint32(rel))<<16 ^ uint64(uint32(window)))
	return splitmix(h ^ salt)
}

func u01(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// strength computes the effectiveness landscape for a parameter point:
// a narrow ridge in width (glitches too narrow do nothing, too wide reset
// the chip more often than they corrupt it) modulated by the intra-cycle
// offset. Matches the paper's observation that only a small, tunable part
// of the parameter space produces useful faults.
func (m *Model) strength(p Params) float64 {
	t := ridges()
	wr, or := t.width[p.Width+ParamRange], t.offset[p.Offset+ParamRange]
	// Per-point character jitter: real boards have fine structure the
	// smooth ridges do not capture.
	j := 0.55 + 0.9*u01(m.hash(p, -1, -1, 0xC0FFEE))
	s := wr * or * j
	if s > 1 {
		s = 1
	}
	return s
}

// widthRidge is the strength landscape's width ridge, centred at 78% of
// the maximum width.
func widthRidge(w int) float64 {
	wn := math.Abs(float64(w)) / ParamRange
	return math.Exp(-math.Pow((wn-0.78)/0.13, 2))
}

// offsetResponse is the landscape's offset response: strongest when the
// edge lands late in the cycle (near the capturing clock edge), with a
// secondary early lobe.
func offsetResponse(o int) float64 {
	on := float64(o) / ParamRange
	return 0.75*math.Exp(-math.Pow((on-0.55)/0.28, 2)) +
		0.45*math.Exp(-math.Pow((on+0.6)/0.22, 2))
}

// ridgeTables holds widthRidge and offsetResponse at every grid value.
type ridgeTables struct{ width, offset [2*ParamRange + 1]float64 }

// ridges builds the ridge tables on first use, sparing strength, which
// runs for every grid point and window cycle, its exp/pow calls.
var ridges = sync.OnceValue(func() *ridgeTables {
	t := new(ridgeTables)
	for i := range t.width {
		t.width[i] = widthRidge(i - ParamRange)
		t.offset[i] = offsetResponse(i - ParamRange)
	}
	return t
})

// eventProbability scales strength into a per-cycle corruption chance.
const eventProbability = 0.6

// character classifies a parameter point's dominant physical effect. Real
// glitch waveforms have a personality: a given (width, offset) reliably
// disturbs the same part of the chip — some points starve the bus (loads
// "fail" toward zero), others corrupt the fetch path. This coherence is
// what makes long glitches behave qualitatively differently from a string
// of independent single glitches (paper Section V-D).
type character uint8

const (
	charFetch    character = iota // corrupts instruction fetch/issue
	charCollapse                  // starves the data bus: loads fail low
	charMixed                     // a bit of everything
)

func (m *Model) character(p Params) character {
	d := u01(m.hash(p, -2, -2, 0xCAA2AC7E))
	switch {
	case d < 0.42:
		return charFetch
	case d < 0.82:
		return charCollapse
	default:
		return charMixed
	}
}

// EventAt returns the corruption event for a glitch delivered at relative
// clock cycle rel in trigger window `window`, or false if this parameter
// point does not disturb that cycle.
//
// The event content is independent of the window index: re-delivering the
// same glitch against identical code produces the same corruption, which is
// why the paper's multi-glitch success (Table II) is gated mainly by the
// glitch generator's recovery, modeled by Recharge, rather than by a fresh
// roll of the dice.
func (m *Model) EventAt(p Params, rel, window int) (pipeline.Event, bool) {
	return m.EventInContext(p, rel, window, 0)
}

// EventInContext is EventAt for a glitch that has already been sustained
// for `sustained` preceding consecutive cycles (long-glitch attacks).
// Sustained glitching changes the physics qualitatively, per the paper's
// Section V-D hypotheses:
//
//   - a starved data bus no longer captures residue, it discharges: loads
//     fail toward zero (which is what lets long glitches break while(a));
//   - the fetch path accumulates corruption into the fetch address itself,
//     so execution tends to fly away and crash (which is why while(!a),
//     the easiest single-glitch target, resists long glitches).
func (m *Model) EventInContext(p Params, rel, window, sustained int) (pipeline.Event, bool) {
	if window > 0 {
		// Back-to-back glitches: the generator may not have recovered.
		if u01(m.hash(p, rel, window, 0x12EC4A26)) > m.Recharge {
			return pipeline.Event{}, false
		}
	}
	s := m.strength(p)
	if u01(m.hash(p, rel, 0, 0x0EB0E147)) > s*eventProbability {
		return pipeline.Event{}, false
	}

	h := m.hash(p, rel, 0, 0x5EED0E47)
	kindDraw := u01(h)
	hm := splitmix(h)

	// The point's character dominates the effect; a minority of events
	// deviate (per-cycle electrical noise).
	switch m.character(p) {
	case charCollapse:
		if kindDraw < 0.80 {
			if sustained >= 2 {
				// Fully starved bus: the load reads zero.
				return pipeline.Event{
					Kind:     pipeline.EventDataCorrupt,
					DataMask: 0xFFFFFFFF,
				}, true
			}
			// A short starvation captures floating residue.
			if u01(splitmix(hm^0x44)) < 0.70 {
				return pipeline.Event{
					Kind:        pipeline.EventDataCorrupt,
					DataResidue: true,
					DataValue:   residueValue(splitmix(hm ^ 0x66)),
				}, true
			}
			return pipeline.Event{
				Kind:     pipeline.EventDataCorrupt,
				DataMask: m.dataMask(hm),
				DataSet:  u01(splitmix(hm^0xC)) < 0.06,
			}, true
		}
	case charFetch:
		if kindDraw < 0.80 {
			pcChance := 0.45 * float64(sustained-1)
			if pcChance > 0.9 {
				pcChance = 0.9
			}
			if sustained >= 2 && u01(splitmix(hm^0x55)) < pcChance {
				// Accumulated fetch-path corruption hits the fetch
				// address itself: the core flies off to a garbage
				// address, which on this memory map is almost always
				// unmapped — the "irrecoverable corruption" the paper
				// credits for long-glitch failures.
				return pipeline.Event{
					Kind:        pipeline.EventPCCorrupt,
					DataResidue: true,
					DataValue:   uint32(splitmix(hm ^ 0x77)),
				}, true
			}
			return pipeline.Event{
				Kind:     pipeline.EventFetchCorrupt,
				InstMask: m.instMask(hm),
				InstSet:  u01(splitmix(hm^0xA)) < 0.08, // rare 0→1 flips
			}, true
		}
	}

	// Mixed character, or the deviating 20% of focused points.
	switch d := u01(splitmix(h ^ 0x31)); {
	case d < 0.35:
		return pipeline.Event{
			Kind:     pipeline.EventExecCorrupt,
			InstMask: m.instMask(hm),
			InstSet:  u01(splitmix(hm^0xB)) < 0.08,
		}, true
	case d < 0.65:
		return pipeline.Event{
			Kind:     pipeline.EventFetchCorrupt,
			InstMask: m.instMask(hm),
			InstSet:  u01(splitmix(hm^0xA)) < 0.08,
		}, true
	case d < 0.82:
		return pipeline.Event{
			Kind:     pipeline.EventDataCorrupt,
			DataMask: m.dataMask(hm),
			DataSet:  u01(splitmix(hm^0xC)) < 0.10,
		}, true
	case d < 0.93:
		if sustained >= 3 {
			// A sustained storm does not produce clean bubbles; the
			// pipeline control state itself is corrupted.
			return pipeline.Event{
				Kind:        pipeline.EventPCCorrupt,
				DataResidue: true,
				DataValue:   uint32(splitmix(hm ^ 0x88)),
			}, true
		}
		return pipeline.Event{Kind: pipeline.EventSkip}, true
	default:
		return pipeline.Event{
			Kind:     pipeline.EventRegCorrupt,
			Reg:      isa.Reg(hm>>40) & 7,
			DataMask: m.dataMask(splitmix(hm ^ 0xD)),
			DataSet:  u01(splitmix(hm^0xE)) < 0.10,
		}, true
	}
}

// instMask picks 1-6 instruction bits with a geometric bias toward few.
func (m *Model) instMask(h uint64) uint16 {
	n := 1
	for d := u01(splitmix(h ^ 0x1111)); n < 6 && d < math.Pow(0.45, float64(n)); n++ {
	}
	var mask uint16
	x := h
	for i := 0; i < n; i++ {
		x = splitmix(x)
		mask |= 1 << (x % 16)
	}
	return mask
}

// residueValue picks what a starved bus captures. Real buses float to a
// small set of characteristic values — alternating-bit patterns, all-ones,
// and echoes of recent traffic such as the stack pointer or the peripheral
// address just written (the paper's Table I observes exactly this residue:
// 0x55, 0x68, 0xFF, 0x20003FE8, mixes of 0x48000028).
func residueValue(h uint64) uint32 {
	palette := [...]uint32{
		0x55, 0x55, 0x55, // dominant alternating-bit residue
		0xFF, 0xFF,
		0x68, 0x21, 0x08,
		0x20003FE8,              // stack pointer echo
		0x48000028,              // trigger GPIO address echo
		0x48000028 ^ 0x6000432F, // partially decayed address mix
	}
	v := palette[h%uint64(len(palette))]
	// Occasionally a couple of residue bits have already decayed.
	if h>>32&0xf == 0 {
		v &^= 1 << (h >> 36 % 32)
	}
	return v
}

// dataMask corrupts a data word: usually a few bits, sometimes a full bus
// collapse (the load "fails" and the captured value is forced toward zero
// — the mechanism the paper hypothesizes behind long-glitch successes
// against while(a)).
func (m *Model) dataMask(h uint64) uint32 {
	if u01(splitmix(h^0x2222)) < 0.28 {
		return 0xFFFFFFFF // bus collapse
	}
	n := 1 + int(splitmix(h^0x3333)%4)
	var mask uint32
	x := h
	for i := 0; i < n; i++ {
		x = splitmix(x)
		mask |= 1 << (x % 32)
	}
	return mask
}

// Plan builds a pipeline.Injector that delivers this model's events on the
// given set of relative cycles (the same plan re-arms for every trigger
// window, as the ChipWhisperer does). Its support spans the smallest to
// the largest cycle.
func (m *Model) Plan(p Params, cycles ...int) pipeline.Injector {
	if len(cycles) == 0 {
		return pipeline.Injector{}
	}
	lo, hi := slices.Min(cycles), slices.Max(cycles)
	if len(cycles) == 1 {
		return pipeline.Injector{From: lo, To: hi + 1, At: func(rel, window int) (pipeline.Event, bool) {
			if rel != lo {
				return pipeline.Event{}, false
			}
			return m.EventAt(p, rel, window)
		}}
	}
	set := make(map[int]bool, len(cycles))
	for _, c := range cycles {
		set[c] = true
	}
	return pipeline.Injector{From: lo, To: hi + 1, At: func(rel, window int) (pipeline.Event, bool) {
		if !set[rel] {
			return pipeline.Event{}, false
		}
		return m.EventAt(p, rel, window)
	}}
}

// RangePlan delivers events on every relative cycle in [from, to) — the
// long-glitch attack of Table III and the windowed attack of Table VI.
// Cycles deep inside the range see the sustained-glitch physics.
func (m *Model) RangePlan(p Params, from, to int) pipeline.Injector {
	return pipeline.Injector{From: from, To: to, At: func(rel, window int) (pipeline.Event, bool) {
		if rel < from || rel >= to {
			return pipeline.Event{}, false
		}
		return m.EventInContext(p, rel, window, rel-from)
	}}
}

// Grid iterates the full (width, offset) parameter grid in deterministic
// order, calling fn for each point.
func Grid(fn func(p Params)) {
	GridBand(-ParamRange, ParamRange+1, func(p Params) bool {
		fn(p)
		return true
	})
}

// GridUntil iterates the grid in Grid's deterministic order but stops as
// soon as fn returns false — the cancel signal searches use so a found
// parameter point does not cost the rest of the grid. It reports whether
// the full grid was visited.
func GridUntil(fn func(p Params) bool) bool {
	return GridBand(-ParamRange, ParamRange+1, fn)
}

// GridBand iterates the width rows lo <= width < hi of the grid (every
// offset of each row, in Grid's order within the band) until fn returns
// false. Scans partition the grid into single-row bands, one work unit
// each, so no parameter point is ever visited twice and row results merge
// by simple addition. It reports whether the whole band was visited.
func GridBand(lo, hi int, fn func(p Params) bool) bool {
	for w := lo; w < hi; w++ {
		for o := -ParamRange; o <= ParamRange; o++ {
			if !fn(Params{Width: w, Offset: o}) {
				return false
			}
		}
	}
	return true
}
