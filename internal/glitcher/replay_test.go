package glitcher

import (
	"reflect"
	"testing"

	"glitchlab/internal/pipeline"
)

// newTargetPair builds a replaying target and a full-run target over the
// same firmware source.
func newTargetPair(t *testing.T, g Guard, src string) (replay, full *Target) {
	t.Helper()
	replay, err := NewTarget(g, src)
	if err != nil {
		t.Fatal(err)
	}
	full, err = NewTarget(g, src)
	if err != nil {
		t.Fatal(err)
	}
	full.FullRun = true
	return replay, full
}

// TestAttemptReplayMatchesFullRun pins per-attempt equivalence between the
// trigger-point snapshot/replay engine and from-reset full runs: for every
// guard, a sampled set of grid points across all loop cycles (single- and
// double-loop firmware, plus long-glitch range plans) must produce
// identical pipeline results — stop reason, tag, fault, registers, cycle
// and step counters — and identical board trigger counts, which is what
// the Table II partial/full classification reads after each attempt.
func TestAttemptReplayMatchesFullRun(t *testing.T) {
	m := NewModel(1)
	stride := 13
	if testing.Short() {
		stride = 41
	}
	for _, g := range Guards() {
		check := func(src, what string, plan func(p Params, cycle int) pipeline.Injector) {
			replay, full := newTargetPair(t, g, src)
			i := 0
			Grid(func(p Params) {
				i++
				if i%stride != 0 {
					return
				}
				for cycle := 0; cycle < LoopCycles; cycle += 3 {
					inj := plan(p, cycle)
					rr := replay.Attempt(inj)
					fr := full.Attempt(inj)
					if !reflect.DeepEqual(rr, fr) {
						t.Fatalf("%v %s p=%+v cycle=%d: replay result %+v != full-run %+v",
							g, what, p, cycle, rr, fr)
					}
					if rt, ft := replay.Board.TriggerCount, full.Board.TriggerCount; rt != ft {
						t.Fatalf("%v %s p=%+v cycle=%d: trigger count %d != %d",
							g, what, p, cycle, rt, ft)
					}
				}
			})
		}
		check(g.SingleLoopSource(), "single", func(p Params, cycle int) pipeline.Injector {
			return m.Plan(p, cycle)
		})
		check(g.DoubleLoopSource(), "double", func(p Params, cycle int) pipeline.Injector {
			return m.Plan(p, cycle)
		})
		check(g.LongGlitchSource(), "long", func(p Params, cycle int) pipeline.Injector {
			return m.RangePlan(p, 0, 10+cycle)
		})
	}
}

// TestTable2ReplayMatchesFullRunScan pins scan-level equivalence: a whole
// Table II multi-glitch scan driven with full runs must equal the default
// replayed scan, per cycle and in total.
func TestTable2ReplayMatchesFullRunScan(t *testing.T) {
	if testing.Short() {
		t.Skip("full parameter scan")
	}
	m := NewModel(1)
	want, err := m.RunTable2(GuardWhileNotA, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	mf := NewModel(1)
	mf.FullRun = true
	got, err := mf.RunTable2(GuardWhileNotA, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("full-run Table II scan differs from replayed scan:\nfull   %+v\nreplay %+v", got, want)
	}
}
