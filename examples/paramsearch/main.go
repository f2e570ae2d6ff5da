// Paramsearch: the paper's Section V-B glitch-parameter tuning. Starting
// from zero knowledge, the attacker scans the (width, offset) space with a
// coarse 10-cycle glitch, then narrows to a single clock cycle until a
// parameter set works 10 times out of 10 — the paper converged in under an
// hour against while(a) and in 16 minutes against the large-Hamming
// comparison.
//
//	go run ./examples/paramsearch
package main

import (
	"fmt"
	"log"

	"glitchlab/internal/core"
	"glitchlab/internal/glitcher"
	"glitchlab/internal/pipeline"
	"glitchlab/internal/search"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	model := glitcher.NewModel(core.DefaultSeed)
	for _, guard := range []glitcher.Guard{glitcher.GuardWhileA, glitcher.GuardWhileNeq} {
		s, err := search.New(model, guard)
		if err != nil {
			return err
		}
		res, err := s.FindRun(nil)
		if err != nil {
			return err
		}
		fmt.Println(res)
		if !res.Found {
			continue
		}
		// Demonstrate the tuned parameters: ten consecutive shots.
		tgt, err := glitcher.NewTarget(guard, guard.SingleLoopSource())
		if err != nil {
			return err
		}
		hits := 0
		for i := 0; i < 10; i++ {
			r := tgt.Attempt(model.Plan(res.Params, res.Cycle))
			if r.Reason == pipeline.StopHit {
				hits++
			}
		}
		fmt.Printf("  replay: %d/10 successful glitches with width=%d%% offset=%d%% cycle=%d\n\n",
			hits, res.Params.Width, res.Params.Offset, res.Cycle)
	}
	fmt.Println("Tuned parameters are perfectly repeatable with a perfect trigger —")
	fmt.Println("which is exactly the repeatability the random-delay defense destroys.")
	return nil
}
