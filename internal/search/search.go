// Package search implements the paper's Section V-B algorithm for locating
// optimal glitch parameters against an unprotected conditional branch: scan
// the (width, offset) grid with a coarse 10-cycle glitch covering the whole
// loop, then recursively narrow the temporal precision for the successful
// points until a parameter set achieves a 100% success rate (10 out of 10
// attempts).
package search

import (
	"fmt"
	"time"

	"glitchlab/internal/glitcher"
	"glitchlab/internal/pipeline"
	"glitchlab/internal/runctl"
)

// Confirmations is the reliability bar: the paper requires 10/10 successes.
const Confirmations = 10

// coarseCycles is the width of the initial glitch, covering every
// instruction in the loop (the paper starts with a 10-cycle clock glitch).
const coarseCycles = 10

// Result reports the outcome of a parameter search.
type Result struct {
	Guard  glitcher.Guard
	Found  bool
	Params glitcher.Params // winning parameter point
	Cycle  int             // winning single clock cycle

	// Attempts and Successes count every glitch fired during the search,
	// like the paper's "7,031 successful glitches out of 36,869".
	Attempts  uint64
	Successes uint64
	// CoarseHits counts parameter points that succeeded in the coarse
	// phase.
	CoarseHits uint64
	// Elapsed is the wall-clock duration of the search. It is
	// diagnostic only and deliberately absent from String: rendered
	// results must be byte-identical across runs, resumes and daemon
	// replays, and wall time never is.
	Elapsed time.Duration
}

// String summarizes the result in the paper's terms.
func (r *Result) String() string {
	if !r.Found {
		return fmt.Sprintf("%s: no reliable parameters found (%d successes in %d attempts)",
			r.Guard, r.Successes, r.Attempts)
	}
	return fmt.Sprintf(
		"%s: width=%d%% offset=%d%% cycle=%d reliable %d/%d (%d successes in %d attempts)",
		r.Guard, r.Params.Width, r.Params.Offset, r.Cycle,
		Confirmations, Confirmations, r.Successes, r.Attempts)
}

// Searcher runs parameter searches against one guard.
type Searcher struct {
	Model  *glitcher.Model
	Guard  glitcher.Guard
	target *glitcher.Target
}

// New prepares a searcher for the guard.
func New(m *glitcher.Model, g glitcher.Guard) (*Searcher, error) {
	t, err := glitcher.NewTarget(g, g.SingleLoopSource())
	if err != nil {
		return nil, err
	}
	t.FullRun = m.FullRun
	return &Searcher{Model: m, Guard: g, target: t}, nil
}

func (s *Searcher) attempt(p glitcher.Params, inj pipeline.Injector, res *Result, ob *glitcher.UnitObs) bool {
	res.Attempts++
	r := s.target.Attempt(inj)
	ob.Attempt(p, r)
	if r.Reason == pipeline.StopHit {
		res.Successes++
		return true
	}
	return false
}

// FindRun scans for parameters achieving Confirmations/Confirmations
// reliability with a single-cycle glitch. It returns a Result whether or
// not a reliable point was found. rn, when non-nil, is polled for
// cancellation at every grid point, and an interrupted search returns the
// partial Result accumulated so far together with an error wrapping
// runctl.ErrInterrupted; a nil rn never interrupts. The search itself is
// not checkpointed — its early-stop walk is seconds long, far below the
// checkpoint-unit granularity of the exhaustive scans.
//
// An observed search is one work unit, named "search guard=<guard>": it
// writes its milestone events as they happen, and merges its attempts'
// observation when it returns.
func (s *Searcher) FindRun(rn *runctl.Run) (*Result, error) {
	res := &Result{Guard: s.Guard}
	start := time.Now()
	defer func() { res.Elapsed = time.Since(start) }()
	defer s.Model.Obs.Span("search.find", map[string]any{
		"guard": s.Guard.String(),
	}).End()
	ob := s.Model.Obs.Unit("search guard="+s.Guard.String(), 0, glitcher.GridSize)
	defer s.Model.Obs.Merge(ob)

	glitcher.GridUntil(func(p glitcher.Params) bool {
		if rn.Err() != nil {
			return false
		}
		// Phase 1: coarse glitch across the whole loop.
		if !s.attempt(p, s.Model.RangePlan(p, 0, coarseCycles), res, ob) {
			return true
		}
		res.CoarseHits++
		s.Model.Obs.Event("search.coarse_hit", map[string]any{
			"guard": s.Guard.String(), "width": p.Width, "offset": p.Offset,
		})
		// Phase 2: narrow to each individual clock cycle. The loop is one
		// guard iteration long: the pipeline's relative clock never wraps,
		// so a single-cycle plan at LoopCycles or beyond would alias into
		// the NEXT loop iteration's early cycles — the coarse window is
		// wider (coarseCycles > LoopCycles) only to guarantee full
		// coverage of the first iteration, not because later single
		// cycles are meaningful.
		for cycle := 0; cycle < glitcher.LoopCycles; cycle++ {
			if !s.attempt(p, s.Model.Plan(p, cycle), res, ob) {
				continue
			}
			// Phase 3: confirm reliability 10/10.
			reliable := true
			for i := 1; i < Confirmations; i++ {
				if !s.attempt(p, s.Model.Plan(p, cycle), res, ob) {
					reliable = false
					break
				}
			}
			if reliable {
				res.Found = true
				res.Params = p
				res.Cycle = cycle
				s.Model.Obs.Event("search.reliable", map[string]any{
					"guard": s.Guard.String(), "width": p.Width,
					"offset": p.Offset, "cycle": cycle,
				})
				// Stop the grid scan: iterating the remaining parameter
				// points after success would only inflate Attempts.
				return false
			}
		}
		return true
	})
	return res, rn.Err()
}
