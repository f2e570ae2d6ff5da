package search

import (
	"bytes"
	"testing"

	"glitchlab/internal/glitcher"
	"glitchlab/internal/obs"
)

// find runs s's search without a run controller.
func find(t *testing.T, s *Searcher) *Result {
	t.Helper()
	res, err := s.FindRun(nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFindReliableParameters(t *testing.T) {
	// Section V-B: the search must locate a single-cycle glitch with
	// 10/10 reliability against both while(a) and the large-Hamming
	// comparison, as the paper's tuning did.
	m := glitcher.NewModel(1)
	for _, g := range []glitcher.Guard{glitcher.GuardWhileA, glitcher.GuardWhileNeq} {
		s, err := New(m, g)
		if err != nil {
			t.Fatal(err)
		}
		res := find(t, s)
		if !res.Found {
			t.Fatalf("%v: %s", g, res)
		}
		if res.Cycle < 0 || res.Cycle >= glitcher.LoopCycles {
			t.Errorf("%v: cycle %d out of range", g, res.Cycle)
		}
		if res.Successes < Confirmations {
			t.Errorf("%v: only %d successes recorded", g, res.Successes)
		}
		// Re-verify the winning parameters independently.
		tgt, err := glitcher.NewTarget(g, g.SingleLoopSource())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < Confirmations; i++ {
			r := tgt.Attempt(m.Plan(res.Params, res.Cycle))
			if r.Tag != "exit" {
				t.Fatalf("%v: winning params failed on confirmation %d", g, i)
			}
		}
	}
}

func TestFindIsDeterministic(t *testing.T) {
	m := glitcher.NewModel(3)
	s1, err := New(m, glitcher.GuardWhileA)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(m, glitcher.GuardWhileA)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := find(t, s1), find(t, s2)
	if r1.Found != r2.Found || r1.Params != r2.Params || r1.Cycle != r2.Cycle ||
		r1.Attempts != r2.Attempts {
		t.Fatalf("search not deterministic: %s vs %s", r1, r2)
	}
}

// TestFindCycleWithinLoop is the regression test for the phase-2 clamp:
// the narrowing loop used to iterate up to coarseCycles (10), two cycles
// past the 8-cycle loop, and a plan at cycle >= LoopCycles aliases into
// the next loop iteration (the pipeline's relative clock never wraps). A
// winning cycle must therefore always lie inside the first iteration.
func TestFindCycleWithinLoop(t *testing.T) {
	seeds := uint64(5)
	if testing.Short() {
		seeds = 1
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		m := glitcher.NewModel(seed)
		for _, g := range []glitcher.Guard{
			glitcher.GuardWhileNotA, glitcher.GuardWhileA, glitcher.GuardWhileNeq,
		} {
			s, err := New(m, g)
			if err != nil {
				t.Fatal(err)
			}
			res := find(t, s)
			if !res.Found {
				continue
			}
			if res.Cycle >= glitcher.LoopCycles {
				t.Errorf("seed %d %v: winning cycle %d aliases past the %d-cycle loop",
					seed, g, res.Cycle, glitcher.LoopCycles)
			}
		}
	}
}

// TestFindStopsAfterSuccess is the regression test for the full-grid
// iteration bug: the search used to keep walking the remaining parameter points
// after locating a reliable point, burning one coarse attempt on each. A
// successful search must fire strictly fewer attempts than an exhaustive
// coarse scan, which attempts every grid point once.
func TestFindStopsAfterSuccess(t *testing.T) {
	m := glitcher.NewModel(1)
	s, err := New(m, glitcher.GuardWhileA)
	if err != nil {
		t.Fatal(err)
	}
	res := find(t, s)
	if !res.Found {
		t.Fatalf("no reliable point found: %s", res)
	}
	if res.Attempts >= glitcher.GridSize {
		t.Errorf("search fired %d attempts, not fewer than the %d of a full coarse scan — grid not stopped on success",
			res.Attempts, glitcher.GridSize)
	}
}

// TestNewCopiesFullRun pins that a searcher attempts on a full-run target
// exactly when its model asks for full runs, so glitchscan -full-run
// reaches the Section V-B search as well as the scans.
func TestNewCopiesFullRun(t *testing.T) {
	for _, full := range []bool{false, true} {
		m := glitcher.NewModel(1)
		m.FullRun = full
		s, err := New(m, glitcher.GuardWhileA)
		if err != nil {
			t.Fatal(err)
		}
		if s.target.FullRun != full {
			t.Errorf("model FullRun=%v: searcher target FullRun=%v", full, s.target.FullRun)
		}
	}
}

// TestSearchMilestonesSurviveSampling traces the §V-B searches against
// both tuned guards at seed 1 and the default sampling rate, as
// glitchscan -exp search does, and requires every milestone event: the 6
// coarse hits and 2 reliable points. They are written whole; only the
// per-attempt records are sampled. Sampled away, they read 0 and 0.
func TestSearchMilestonesSurviveSampling(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	tr.SetSampling(obs.DefaultSampling)
	reg := obs.NewRegistry()
	m := glitcher.NewModel(1)
	m.Obs = glitcher.NewObs(reg, tr)
	var attempts uint64
	for _, g := range []glitcher.Guard{glitcher.GuardWhileA, glitcher.GuardWhileNeq} {
		s, err := New(m, g)
		if err != nil {
			t.Fatal(err)
		}
		attempts += find(t, s).Attempts
	}
	tr.Close()
	for name, want := range map[string]int{"search.coarse_hit": 6, "search.reliable": 2} {
		if got := bytes.Count(buf.Bytes(), []byte(`"name":"`+name+`"`)); got != want {
			t.Errorf("%d %s records, want %d", got, name, want)
		}
	}
	if got := reg.Counter(glitcher.MetricAttempts).Value(); got != attempts {
		t.Errorf("%s = %d after the searches merged, want %d", glitcher.MetricAttempts, got, attempts)
	}
}
