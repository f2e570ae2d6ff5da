package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"glitchlab/internal/isa"
	"glitchlab/internal/mutate"
	"glitchlab/internal/obs"
	"glitchlab/internal/runctl"
)

func resumeManifest() runctl.Manifest {
	return runctl.Manifest{Tool: "campaign-test", ConfigHash: "sha256:test", Seed: 1}
}

// observedRun is one observed campaign: its results, its trace (under a
// constant clock, so t_us and dur_us are zero) and its metrics.
type observedRun struct {
	results []CondResult
	trace   []byte
	snap    obs.Snapshot
	err     error
}

// runObserved runs cfg with a fresh registry and a constant-clock tracer
// keeping one record in every sample.
func runObserved(cfg Config, sample int) observedRun {
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	tr.SetClock(func() time.Time { return time.Unix(1700000000, 0) })
	tr.SetSampling(sample)
	reg := obs.NewRegistry()
	cfg.Obs = NewObserver(reg, tr)
	results, err := Run(cfg)
	tr.Close()
	return observedRun{results, buf.Bytes(), reg.Snapshot(), err}
}

// sameObservation reports how an observed run differs from want, or "".
// runctl.* metrics live in obs.Default, so neither snapshot holds them.
func sameObservation(got, want observedRun) string {
	switch {
	case !reflect.DeepEqual(got.results, want.results):
		return "results differ"
	case !bytes.Equal(got.trace, want.trace):
		return fmt.Sprintf("trace differs:\n--- got ---\n%s--- want ---\n%s", got.trace, want.trace)
	case !reflect.DeepEqual(got.snap, want.snap):
		return fmt.Sprintf("metrics differ:\n--- got ---\n%s--- want ---\n%s", got.snap.Text(), want.snap.Text())
	}
	return ""
}

// TestResumeByteIdentical is the crash/resume equivalence property test:
// an observed, sharded campaign killed by injected cancellation after a
// random prefix of completed work units, then resumed from its checkpoint
// with a different worker count, must produce results, a trace and
// metrics equal to an uninterrupted serial run's. The checkpoint stores
// each unit's observation with its result, and the resumed run merges
// restored and fresh units in unit order.
func TestResumeByteIdentical(t *testing.T) {
	maxFlips, trials := 5, 3
	if testing.Short() {
		maxFlips, trials = 3, 2
	}
	cfg := func(workers int, rn *runctl.Run) Config {
		return Config{Model: mutate.AND, MaxFlips: maxFlips, Workers: workers, Run: rn}
	}
	const sample = 7
	baseline := runObserved(cfg(1, nil), sample)
	if baseline.err != nil {
		t.Fatal(baseline.err)
	}
	totalUnits := len(isa.BranchConds()) * (maxFlips + 1)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < trials; trial++ {
		dir := t.TempDir()
		killAfter := 1 + rng.Intn(totalUnits-1)
		interruptedWorkers := 3
		if trial%2 == 1 {
			interruptedWorkers = 1 // serial runs share the same checkpoint units
		}

		ctx, cancel := context.WithCancel(context.Background())
		rn, err := runctl.Open(ctx, dir, resumeManifest(), false)
		if err != nil {
			t.Fatal(err)
		}
		var done atomic.Int64
		rn.Hooks.AfterUnit = func(string) {
			if done.Add(1) == int64(killAfter) {
				cancel()
			}
		}
		partial := runObserved(cfg(interruptedWorkers, rn), sample)
		cancel()
		if err := rn.Close(); err != nil {
			t.Fatal(err)
		}
		if !errors.Is(partial.err, runctl.ErrInterrupted) {
			t.Fatalf("trial %d: killed run returned %v, want ErrInterrupted", trial, partial.err)
		}
		if len(partial.results) >= len(baseline.results) {
			t.Fatalf("trial %d: interrupted run returned %d conds, want fewer than %d",
				trial, len(partial.results), len(baseline.results))
		}

		rn2, err := runctl.Open(context.Background(), dir, resumeManifest(), true)
		if err != nil {
			t.Fatal(err)
		}
		if rn2.Loaded() < killAfter {
			t.Fatalf("trial %d: checkpoint lost units: loaded %d, completed at least %d",
				trial, rn2.Loaded(), killAfter)
		}
		resumed := runObserved(cfg(2, rn2), sample)
		if resumed.err != nil {
			t.Fatalf("trial %d: resume failed: %v", trial, resumed.err)
		}
		if err := rn2.Close(); err != nil {
			t.Fatal(err)
		}
		if diff := sameObservation(resumed, baseline); diff != "" {
			t.Fatalf("trial %d (killed after %d units, %d workers): resumed run: %s",
				trial, killAfter, interruptedWorkers, diff)
		}
	}
}

// TestObservedResumeRerunsUnobservedUnits resumes observed runs over
// checkpoints whose units carry no usable observation: one written by an
// unobserved run, and one observed at another sampling rate. Every
// restored unit must rerun, so the resumed run's results, trace and
// metrics equal an uninterrupted observed run's.
func TestObservedResumeRerunsUnobservedUnits(t *testing.T) {
	const sample = 5
	cfg := func(rn *runctl.Run) Config {
		return Config{Model: mutate.AND, MaxFlips: 2, Workers: 2, Run: rn}
	}
	baseline := runObserved(cfg(nil), sample)
	if baseline.err != nil {
		t.Fatal(baseline.err)
	}
	for _, first := range []struct {
		name   string
		sample int // 0: unobserved
	}{{"unobserved", 0}, {"other sampling", 3}} {
		dir := t.TempDir()
		rn, err := runctl.Open(context.Background(), dir, resumeManifest(), false)
		if err != nil {
			t.Fatal(err)
		}
		if first.sample == 0 {
			_, err = Run(cfg(rn))
		} else {
			err = runObserved(cfg(rn), first.sample).err
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := rn.Close(); err != nil {
			t.Fatal(err)
		}

		rn2, err := runctl.Open(context.Background(), dir, resumeManifest(), true)
		if err != nil {
			t.Fatal(err)
		}
		var reran atomic.Int64
		rn2.Hooks.BeforeUnit = func(string) { reran.Add(1) }
		resumed := runObserved(cfg(rn2), sample)
		if err := rn2.Close(); err != nil {
			t.Fatal(err)
		}
		if resumed.err != nil {
			t.Fatalf("%s checkpoint: resume failed: %v", first.name, resumed.err)
		}
		if units := int64(rn2.Loaded()); reran.Load() != units {
			t.Errorf("%s checkpoint: reran %d units, want all %d", first.name, reran.Load(), units)
		}
		if diff := sameObservation(resumed, baseline); diff != "" {
			t.Errorf("%s checkpoint: resumed run: %s", first.name, diff)
		}
	}
}

// TestPanicQuarantine is the panic-isolation regression test: one poisoned
// work unit must yield a quarantine record and a QuarantineError naming
// it — not a process crash — while every other condition completes; a
// resume without the fault retries the unit and recovers the full results.
func TestPanicQuarantine(t *testing.T) {
	const poisoned = "cond=beq k=2"
	cfg := func(workers int) Config {
		return Config{Model: mutate.AND, MaxFlips: 3, Workers: workers}
	}
	baseline, err := Run(cfg(1))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	rn, err := runctl.Open(context.Background(), dir, resumeManifest(), false)
	if err != nil {
		t.Fatal(err)
	}
	rn.Hooks.BeforeUnit = func(unit string) {
		if strings.Contains(unit, poisoned) {
			panic("injected fault")
		}
	}
	pcfg := cfg(3)
	pcfg.Run = rn
	results, err := Run(pcfg)
	var qe *runctl.QuarantineError
	if !errors.As(err, &qe) {
		t.Fatalf("poisoned run returned %v, want QuarantineError", err)
	}
	if len(qe.Units) != 1 || !strings.Contains(qe.Units[0].Unit, poisoned) {
		t.Fatalf("quarantine = %+v, want exactly the poisoned unit", qe.Units)
	}
	if !strings.Contains(err.Error(), poisoned) {
		t.Fatalf("error must name the poisoned unit: %v", err)
	}
	if len(results) != len(baseline)-1 {
		t.Fatalf("poisoned run returned %d conds, want all but one (%d)",
			len(results), len(baseline)-1)
	}
	for _, res := range results {
		if res.Cond == isa.EQ {
			t.Fatal("the poisoned condition must be excluded from the results")
		}
	}
	if err := rn.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume without the fault: the quarantined unit reruns cleanly.
	rn2, err := runctl.Open(context.Background(), dir, resumeManifest(), true)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg(2)
	rcfg.Run = rn2
	resumed, err := Run(rcfg)
	if err != nil {
		t.Fatalf("resume after quarantine failed: %v", err)
	}
	if err := rn2.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, baseline) {
		t.Fatal("resumed results differ from uninterrupted run")
	}
}
