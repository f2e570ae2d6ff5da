package core

import (
	"errors"

	"glitchlab/internal/campaign"
	"glitchlab/internal/glitcher"
	"glitchlab/internal/mutate"
	"glitchlab/internal/obs/profile"
	"glitchlab/internal/runctl"
	"glitchlab/internal/search"
)

// DefaultSeed is the fault-model seed all published tables use, so every
// number in EXPERIMENTS.md is exactly reproducible.
const DefaultSeed = 1

// RunFigure2 executes one Figure 2 emulation campaign variant. o, when
// non-nil, instruments every execution (pass nil for a bare run). prof,
// when non-nil, samples phase attribution for the campaign's hot path
// (several variants may share one profile; their wall-clock brackets
// sum). workers shards the campaign across goroutines (<= 1 runs one
// worker), and the results are identical at any count. fullRun disables
// trigger-point snapshot replay, re-simulating the harness prologue on
// every mutated execution — results are byte-identical either way (the
// ci.sh replay gate cmp-proves it on rendered output). rn, when non-nil,
// threads the run controller through the campaign: cancellation between
// work units, per-unit checkpointing with resume, and panic quarantine.
func RunFigure2(model mutate.Model, zeroInvalid bool, maxFlips, workers int, fullRun bool, o *campaign.Observer, prof *profile.Profile, rn *runctl.Run) ([]campaign.CondResult, error) {
	return campaign.Run(campaign.Config{
		Model:       model,
		ZeroInvalid: zeroInvalid,
		MaxFlips:    maxFlips,
		FullRun:     fullRun,
		Workers:     workers,
		Obs:         o,
		Profile:     prof,
		Run:         rn,
	})
}

// RunUDFHardening executes the Section IV extension experiment: the same
// mutation campaign against snippets whose unreachable slots are filled
// with permanently-undefined instructions, testing the paper's hypothesis
// that "adding invalid instructions in between valid instructions would
// likely thwart many glitching attempts".
func RunUDFHardening(model mutate.Model, maxFlips, workers int, fullRun bool, o *campaign.Observer, prof *profile.Profile, rn *runctl.Run) ([]campaign.CondResult, error) {
	return campaign.Run(campaign.Config{
		Model:    model,
		PadUDF:   true,
		MaxFlips: maxFlips,
		FullRun:  fullRun,
		Workers:  workers,
		Obs:      o,
		Profile:  prof,
		Run:      rn,
	})
}

// RunTable1 executes the single-glitch scans for all three guards against
// the given fault model (attach Model.Obs beforehand to instrument them),
// sharding each scan across workers goroutines (<= 1 for one). With rn
// set, an interrupted run returns the tables completed so far (the partial
// table for the guard in flight is dropped; its rows live on in the
// checkpoint) plus an error wrapping runctl.ErrInterrupted, and a run with
// quarantined rows returns all tables plus a *runctl.QuarantineError.
func RunTable1(m *glitcher.Model, workers int, rn *runctl.Run) ([]*glitcher.Table1Result, error) {
	var out []*glitcher.Table1Result
	for _, g := range glitcher.Guards() {
		r, err := m.RunTable1(g, workers, rn)
		if err != nil {
			if errors.Is(err, runctl.ErrInterrupted) {
				return out, err
			}
			return nil, err
		}
		out = append(out, r)
	}
	return out, rn.FinishErr()
}

// RunTable2 executes the multi-glitch scans for all three guards.
func RunTable2(m *glitcher.Model, workers int, rn *runctl.Run) ([]*glitcher.Table2Result, error) {
	var out []*glitcher.Table2Result
	for _, g := range glitcher.Guards() {
		r, err := m.RunTable2(g, workers, rn)
		if err != nil {
			if errors.Is(err, runctl.ErrInterrupted) {
				return out, err
			}
			return nil, err
		}
		out = append(out, r)
	}
	return out, rn.FinishErr()
}

// RunTable3 executes the long-glitch scans for all three guards.
func RunTable3(m *glitcher.Model, workers int, rn *runctl.Run) ([]*glitcher.Table3Result, error) {
	var out []*glitcher.Table3Result
	for _, g := range glitcher.Guards() {
		r, err := m.RunTable3(g, workers, rn)
		if err != nil {
			if errors.Is(err, runctl.ErrInterrupted) {
				return out, err
			}
			return nil, err
		}
		out = append(out, r)
	}
	return out, rn.FinishErr()
}

// RunSearch executes the Section V-B optimal-parameter search against the
// two guards the paper tuned (while(a) and the large-Hamming-distance
// comparison). rn adds cancellation between and inside the searches.
func RunSearch(m *glitcher.Model, rn *runctl.Run) ([]*search.Result, error) {
	var out []*search.Result
	for _, g := range []glitcher.Guard{glitcher.GuardWhileA, glitcher.GuardWhileNeq} {
		s, err := search.New(m, g)
		if err != nil {
			return nil, err
		}
		res, err := s.FindRun(rn)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}
