package glitchlab

// One benchmark per table and figure of the paper's evaluation. Each
// benchmark exercises the exact code path that regenerates its artifact;
// where a full regeneration takes seconds to minutes, the benchmark runs a
// representative slice per iteration (one branch condition, one clock
// cycle, one parameter-grid row) so `go test -bench=.` stays tractable.
// The cmd/ tools run the full versions.

import (
	"fmt"
	"testing"

	"glitchlab/internal/campaign"
	"glitchlab/internal/core"
	"glitchlab/internal/glitcher"
	"glitchlab/internal/isa"
	"glitchlab/internal/mutate"
	"glitchlab/internal/obs"
	"glitchlab/internal/passes"
	"glitchlab/internal/pipeline"
	"glitchlab/internal/search"
)

// skipIfShort keeps `go test -short -bench .` quick in CI: the campaign
// benchmarks emulate full parameter grids or boots per iteration.
func skipIfShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("exhaustive campaign benchmark skipped in -short mode")
	}
}

// benchSweep runs one conditional branch's mutation sweep up to maxFlips.
func benchSweep(b *testing.B, model mutate.Model, zeroInvalid bool) {
	b.Helper()
	skipIfShort(b)
	r, err := campaign.NewRunner(isa.EQ, zeroInvalid)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := r.Sweep(model, 2) // k = 0..2: 137 mutated executions
		if res.Runs == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// Figure 2a: AND (1→0) flips over every conditional branch encoding.
func BenchmarkFigure2AND(b *testing.B) { benchSweep(b, mutate.AND, false) }

// Figure 2b: OR (0→1) flips.
func BenchmarkFigure2OR(b *testing.B) { benchSweep(b, mutate.OR, false) }

// Figure 2c: AND flips with the all-zero encoding made invalid.
func BenchmarkFigure2ANDZeroInvalid(b *testing.B) { benchSweep(b, mutate.AND, true) }

// Section IV text: the bidirectional XOR control.
func BenchmarkFigure2XOR(b *testing.B) { benchSweep(b, mutate.XOR, false) }

// BenchmarkCampaignBare is the uninstrumented baseline: one branch's
// k = 0..2 sweep with no observer attached, the exact hot path Figure 2
// regeneration uses — trigger-point snapshot replay with per-halfword
// outcome memoization, so repeat sweeps are mostly memo lookups.
func BenchmarkCampaignBare(b *testing.B) {
	skipIfShort(b)
	r, err := campaign.NewRunner(isa.EQ, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := r.Sweep(mutate.AND, 2); res.Runs == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkCampaignInstrumented is the same sweep with a full observer
// (counters, histogram, fault hook) but no trace sink — the configuration
// `-metrics` runs in. An observed run executes every mask for real (each
// must emit a genuine record), forfeiting the bare path's memoization, so
// the gap to BenchmarkCampaignBare is dominated by that forfeit rather
// than the observer's bookkeeping (see BENCH_obs.json).
func BenchmarkCampaignInstrumented(b *testing.B) {
	skipIfShort(b)
	r, err := campaign.NewRunner(isa.EQ, false)
	if err != nil {
		b.Fatal(err)
	}
	r.Obs = campaign.NewObserver(obs.NewRegistry(), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := r.Sweep(mutate.AND, 2); res.Runs == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkCampaignParallel measures the worker-sharded campaign engine
// against its serial baseline: the full Figure 2 pipeline (all 14 branch
// conditions, k = 0..5, ~96k mutated executions) at 1, 2, 4 and 8
// workers. The sub-benchmark results feed BENCH_parallel.json
// (BENCH_parallel_pre_hotpath.json preserves the pre-overhaul numbers;
// TestHotPathSpeedupClaim pins the >=5x ratio between the two). Since
// snapshot replay and memoization shrank a full unit to ~1ms, sharding
// overhead roughly cancels the parallel win on this workload; -workers
// still pays off for -full-run and observed runs, which execute every
// mask.
func BenchmarkCampaignParallel(b *testing.B) {
	skipIfShort(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := campaign.Run(campaign.Config{
					Model:    mutate.AND,
					MaxFlips: 5,
					Workers:  workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(results) == 0 {
					b.Fatal("empty campaign")
				}
			}
		})
	}
}

// BenchmarkScanParallel measures the band-sharded grid-scan engine: one
// guard's full Table I scan (8 cycles x 9,801 points) at 1, 2 and 4
// workers.
func BenchmarkScanParallel(b *testing.B) {
	skipIfShort(b)
	m := glitcher.NewModel(core.DefaultSeed)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := m.RunTable1(glitcher.GuardWhileA, workers, nil)
				if err != nil {
					b.Fatal(err)
				}
				if res.Attempts == 0 {
					b.Fatal("empty scan")
				}
			}
		})
	}
}

// benchTable1 scans one clock cycle of one guard over the parameter grid.
func benchTable1(b *testing.B, g glitcher.Guard) {
	b.Helper()
	skipIfShort(b)
	m := glitcher.NewModel(core.DefaultSeed)
	t, err := glitcher.NewTarget(g, g.SingleLoopSource())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attempts := 0
		glitcher.Grid(func(p glitcher.Params) {
			if _, hit := m.EventAt(p, 4, 0); !hit {
				return
			}
			attempts++
			t.Attempt(m.Plan(p, 4))
		})
		if attempts == 0 {
			b.Fatal("no events in grid")
		}
	}
}

// Table Ia: single-glitch scan against while(!a).
func BenchmarkTable1WhileNotA(b *testing.B) { benchTable1(b, glitcher.GuardWhileNotA) }

// Table Ib: single-glitch scan against while(a).
func BenchmarkTable1WhileA(b *testing.B) { benchTable1(b, glitcher.GuardWhileA) }

// Table Ic: single-glitch scan against while(a != 0xD3B9AEC6).
func BenchmarkTable1WhileNeq(b *testing.B) { benchTable1(b, glitcher.GuardWhileNeq) }

// Table II: multi-glitch (two triggers, same parameters) for one cycle.
func BenchmarkTable2MultiGlitch(b *testing.B) {
	skipIfShort(b)
	m := glitcher.NewModel(core.DefaultSeed)
	g := glitcher.GuardWhileNotA
	t, err := glitcher.NewTarget(g, g.DoubleLoopSource())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		glitcher.Grid(func(p glitcher.Params) {
			if _, hit := m.EventAt(p, 5, 0); !hit {
				return
			}
			t.Attempt(m.Plan(p, 5))
		})
	}
}

// Table III: long glitch (cycles 0-10) over two subsequent loops.
func BenchmarkTable3LongGlitch(b *testing.B) {
	skipIfShort(b)
	m := glitcher.NewModel(core.DefaultSeed)
	g := glitcher.GuardWhileA
	t, err := glitcher.NewTarget(g, g.LongGlitchSource())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		glitcher.Grid(func(p glitcher.Params) {
			any := false
			for rel := 0; rel < 10 && !any; rel++ {
				_, any = m.EventInContext(p, rel, 0, rel)
			}
			if !any {
				return
			}
			t.Attempt(m.RangePlan(p, 0, 10))
		})
	}
}

// Section V-B: the full optimal-parameter search to 10/10 reliability.
func BenchmarkParamSearch(b *testing.B) {
	skipIfShort(b)
	m := glitcher.NewModel(core.DefaultSeed)
	for i := 0; i < b.N; i++ {
		s, err := search.New(m, glitcher.GuardWhileA)
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.FindRun(nil)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Found {
			b.Fatal("search failed")
		}
	}
}

// Table IV: boot-cycle measurement of the fully defended firmware.
func BenchmarkTable4BootOverhead(b *testing.B) {
	skipIfShort(b)
	res, err := core.Compile(core.EvalFirmware, passes.All(core.EvalSensitive...))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := core.NewMachine(res.Image)
		if err != nil {
			b.Fatal(err)
		}
		r := m.Run(50_000_000)
		if r.Tag != "boot_done" {
			b.Fatalf("boot ended %v/%q", r.Reason, r.Tag)
		}
		b.ReportMetric(float64(r.Cycles), "bootcycles")
	}
}

// Table V: building the firmware under every defense set and measuring
// section sizes.
func BenchmarkTable5SizeOverhead(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		t5, err := core.RunTable5()
		if err != nil {
			b.Fatal(err)
		}
		all := t5.Rows[len(t5.Rows)-1]
		b.ReportMetric(float64(all.Sizes.Total()), "allbytes")
	}
}

// Table VI: one parameter-grid row (99 offsets at one width) of the
// best-case single-glitch cell.
func BenchmarkTable6Defenses(b *testing.B) {
	skipIfShort(b)
	model := glitcher.NewModel(core.DefaultSeed)
	res, err := core.Compile(core.IfSuccessFirmware, passes.AllButDelay())
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.NewMachine(res.Image)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for o := -glitcher.ParamRange; o <= glitcher.ParamRange; o++ {
			p := glitcher.Params{Width: -38, Offset: o}
			if _, hit := model.EventAt(p, 8, 0); !hit {
				continue
			}
			m.Board.Reset()
			m.Glitch = model.Plan(p, 8)
			m.Run(200_000)
		}
	}
}

// Ablation: how much each individual defense costs to compile and boot.
func BenchmarkAblationDefenseConfigs(b *testing.B) {
	skipIfShort(b)
	for _, cfg := range core.DefenseConfigs(core.EvalSensitive...) {
		cfg := cfg
		b.Run(cfg.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Compile(core.EvalFirmware, cfg)
				if err != nil {
					b.Fatal(err)
				}
				m, err := core.NewMachine(res.Image)
				if err != nil {
					b.Fatal(err)
				}
				r := m.Run(50_000_000)
				if r.Tag != "boot_done" {
					b.Fatalf("boot ended %v/%q", r.Reason, r.Tag)
				}
				b.ReportMetric(float64(r.Cycles), "bootcycles")
				b.ReportMetric(float64(res.Image.Sizes.Total()), "imagebytes")
			}
		})
	}
}

// Ablation: raw emulator speed (instructions per second), the substrate
// every experiment stands on.
func BenchmarkEmulatorThroughput(b *testing.B) {
	skipIfShort(b)
	g := glitcher.GuardWhileNotA
	t, err := glitcher.NewTarget(g, g.SingleLoopSource())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := t.CleanRun()
		if r.Reason != pipeline.StopHung {
			b.Fatal("guard exited")
		}
		b.ReportMetric(float64(r.Steps), "instructions")
	}
}

// Ablation: decoder throughput over the full 16-bit encoding space.
func BenchmarkDecoderFullSpace(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		valid := 0
		for hw := 0; hw < 0x10000; hw++ {
			if isa.Is32Bit(uint16(hw)) {
				continue
			}
			if in := isa.Decode(uint16(hw), 0); in.Op != isa.OpInvalid {
				valid++
			}
		}
		if valid == 0 {
			b.Fatal("no valid encodings")
		}
	}
}
