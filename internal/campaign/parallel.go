package campaign

import (
	"errors"
	"runtime"
	"sort"

	"glitchlab/internal/isa"
	"glitchlab/internal/mutate"
	"glitchlab/internal/runctl"
)

// DefaultWorkers is the default shard count for parallel campaigns and
// scans: one worker per schedulable CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// unit is one shard of a campaign: every mask of one flip count against
// one conditional branch. Units are fully independent — each runs on its
// worker's own Runner (private CPU and memory), so workers share no
// mutable state and the merge can place every FlipResult in its
// predetermined slot.
type unit struct {
	condIdx int
	flips   int
}

// runUnits executes the campaign's units on a runctl.Pool of cfg.Workers
// workers. Units are listed largest-first (C(16,k) peaks at k=8) so the
// expensive middle flip counts do not end up serialized on one worker; the
// merge reassembles results in BranchConds/ascending-k order, so the
// output does not depend on the worker count. On interruption or
// quarantine only the conditions whose every unit completed are
// assembled; the rest live on in the checkpoint.
func runUnits(cfg Config) ([]CondResult, error) {
	conds := isa.BranchConds()
	units := make([]unit, 0, len(conds)*(cfg.MaxFlips+1))
	for ci := range conds {
		for k := 0; k <= cfg.MaxFlips; k++ {
			units = append(units, unit{condIdx: ci, flips: k})
		}
	}
	sort.SliceStable(units, func(i, j int) bool {
		return mutate.Binomial(16, units[i].flips) > mutate.Binomial(16, units[j].flips)
	})
	keys := make([]string, len(units))
	for i, u := range units {
		keys[i] = cfg.unitKey(conds[u.condIdx], u.flips)
	}

	grid := make([][]FlipResult, len(conds))
	for ci := range grid {
		grid[ci] = make([]FlipResult, cfg.MaxFlips+1)
	}
	have := make([]int, len(conds)) // units emitted per condition
	err := runctl.Pool[FlipResult]{
		Keys:    keys,
		Workers: cfg.Workers,
		Start: func() (func(int) (FlipResult, error), func(), error) {
			shard := cfg.Obs.Shard()
			psh := cfg.Profile.Shard()
			// One runner per condition per worker: rebuilding it for
			// every flip-count unit of the same condition would redo the
			// assembly and prologue and drop the word memo.
			runners := make([]*Runner, len(conds))
			run := func(i int) (FlipResult, error) {
				u := units[i]
				r := runners[u.condIdx]
				if r == nil {
					var err error
					if r, err = newRunnerFor(cfg, conds[u.condIdx]); err != nil {
						return FlipResult{}, err
					}
					r.Obs = shard
					r.Prof = psh
					if shard != nil {
						shard.attach(r.cpu)
					}
					runners[u.condIdx] = r
				}
				return r.sweepFlips(cfg.Model, u.flips), nil
			}
			return run, func() { shard.flush(); psh.Flush() }, nil
		},
		Emit: func(i int, fr FlipResult) {
			u := units[i]
			grid[u.condIdx][u.flips] = fr
			have[u.condIdx]++
		},
	}.Run(cfg.Run)
	if err != nil && !errors.Is(err, runctl.ErrInterrupted) {
		return nil, err
	}

	results := make([]CondResult, 0, len(conds))
	for ci, cond := range conds {
		if have[ci] != cfg.MaxFlips+1 {
			continue
		}
		res := CondResult{Cond: cond, Model: cfg.Model}
		for _, fr := range grid[ci] {
			res.merge(fr)
		}
		results = append(results, res)
	}
	return results, err
}
