package campaign

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"glitchlab/internal/isa"
	"glitchlab/internal/mutate"
	"glitchlab/internal/runctl"
)

// TestReplayMatchesFullRunPerWord is the strongest form of the replay
// equivalence claim: for every one of the 65536 possible branch words, a
// trigger-point replay must classify the execution identically to a
// from-reset full run AND leave the emulator in the same architectural
// state (registers, flags, PC, retired-step and cycle counters) — the
// state the observer's trace records are built from. Each word is executed
// exactly once per runner, so the outcome memo never synthesizes a result
// and the comparison always sees a live execution.
func TestReplayMatchesFullRunPerWord(t *testing.T) {
	conds := []isa.Cond{isa.EQ, isa.GT}
	if testing.Short() {
		conds = conds[:1]
	}
	for _, cond := range conds {
		for _, pad := range []bool{false, true} {
			newR := func() (*Runner, error) {
				if pad {
					return NewPaddedRunner(cond, false)
				}
				return NewRunner(cond, false)
			}
			replay, err := newR()
			if err != nil {
				t.Fatal(err)
			}
			full, err := newR()
			if err != nil {
				t.Fatal(err)
			}
			full.FullRun = true
			for w := 0; w < 1<<16; w++ {
				word := uint16(w)
				ro := replay.RunOne(word)
				fo := full.RunOne(word)
				if ro != fo {
					t.Fatalf("b%v pad=%t word %#04x: replay=%v full=%v",
						cond, pad, word, ro, fo)
				}
				if rs, fs := replay.cpu.State(), full.cpu.State(); rs != fs {
					t.Fatalf("b%v pad=%t word %#04x: post-run CPU state diverged:\nreplay %+v\nfull   %+v",
						cond, pad, word, rs, fs)
				}
			}
		}
	}
}

// TestReplayMatchesFullRunCampaign pins whole-campaign equivalence across
// every conditional branch and both execution engines: replayed campaigns
// (serial and sharded) must be deeply equal to full-run campaigns, for the
// plain and UDF-padded variants. This is what lets FullRun default to off
// everywhere without any golden file changing.
func TestReplayMatchesFullRunCampaign(t *testing.T) {
	maxFlips := 4
	if testing.Short() {
		maxFlips = 3
	}
	for _, model := range []mutate.Model{mutate.AND, mutate.OR} {
		for _, pad := range []bool{false, true} {
			base := Config{Model: model, PadUDF: pad, MaxFlips: maxFlips}

			fullCfg := base
			fullCfg.FullRun = true
			want, err := Run(fullCfg)
			if err != nil {
				t.Fatal(err)
			}

			replayCfg := base
			got, err := Run(replayCfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("model=%v pad=%t: serial replay campaign differs from full-run campaign",
					model, pad)
			}

			parCfg := base
			parCfg.Workers = 4
			got, err = Run(parCfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("model=%v pad=%t: sharded replay campaign differs from full-run campaign",
					model, pad)
			}
		}
	}
}

// panicHookRunner builds a runner whose OnExec hook panics the first time
// the (mutated) branch executes, simulating an emulator bug mid-execution.
func panicHookRunner(t *testing.T) *Runner {
	t.Helper()
	r, err := NewRunner(isa.EQ, false)
	if err != nil {
		t.Fatal(err)
	}
	armed := true
	r.cpu.Hooks.OnExec = func(addr uint32, _ isa.Inst) {
		if armed && addr == r.branchAddr {
			armed = false
			panic("injected emulator fault")
		}
	}
	return r
}

// checkPristine asserts the branch halfword in flash is the unperturbed
// encoding.
func checkPristine(t *testing.T, r *Runner, path string) {
	t.Helper()
	got := uint16(r.flash.Data[r.branchOff]) | uint16(r.flash.Data[r.branchOff+1])<<8
	if got != r.original {
		t.Fatalf("%s: flash holds %#04x after recovered panic, want pristine %#04x",
			path, got, r.original)
	}
}

// TestPanicRestoresPristineImageProtected is the mutation-restore
// regression test under the run controller: a panic raised mid-execution
// (from a CPU hook) must not leak the mutated branch halfword into flash
// once runctl's Protect has recovered the unit, so the runner a
// quarantined unit leaves behind still holds the pristine image.
func TestPanicRestoresPristineImageProtected(t *testing.T) {
	r := panicHookRunner(t)
	rn, err := runctl.Open(context.Background(), t.TempDir(), resumeManifest(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Close()
	err = rn.Protect("campaign-test poisoned unit", func() error {
		r.sweepFlips(mutate.AND, 1, "")
		return nil
	})
	var pe *runctl.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Protect returned %v, want PanicError", err)
	}
	checkPristine(t, r, "protected sweep")
}

// TestPanicRestoresPristineImageBare covers the same invariant without a
// run controller, where the panic propagates: the unit-level deferred
// restore (not a per-execution defer closure) must leave flash pristine
// after both a sweep unit and a lone RunOne panic.
func TestPanicRestoresPristineImageBare(t *testing.T) {
	r := panicHookRunner(t)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("hook did not panic")
			}
		}()
		r.sweepFlips(mutate.AND, 1, "")
	}()
	checkPristine(t, r, "bare sweep")

	r = panicHookRunner(t)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("hook did not panic")
			}
		}()
		r.RunOne(0x0000) // AND-all mask; hook panics at the branch
	}()
	checkPristine(t, r, "RunOne")
}
