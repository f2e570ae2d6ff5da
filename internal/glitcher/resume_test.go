package glitcher

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"glitchlab/internal/obs"
	"glitchlab/internal/runctl"
)

// TestTable2ResumeByteIdentical kills an observed, sharded Table II scan
// after a prefix of completed width rows (via injected cancellation),
// resumes it from the checkpoint with a different worker count, and
// requires the merged result, the trace (under a constant clock) and the
// metrics to equal an uninterrupted serial scan's.
func TestTable2ResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid scan")
	}
	type observed struct {
		res   *Table2Result
		trace []byte
		snap  obs.Snapshot
		err   error
	}
	run := func(workers int, rn *runctl.Run) observed {
		var buf bytes.Buffer
		tr := obs.NewTracer(&buf)
		tr.SetClock(func() time.Time { return time.Unix(1700000000, 0) })
		tr.SetSampling(3)
		reg := obs.NewRegistry()
		m := NewModel(7)
		m.Obs = NewObs(reg, tr)
		res, err := m.RunTable2(GuardWhileNeq, workers, rn)
		tr.Close()
		return observed{res, buf.Bytes(), reg.Snapshot(), err}
	}
	serial := run(1, nil)
	if serial.err != nil {
		t.Fatal(serial.err)
	}

	dir := t.TempDir()
	manifest := runctl.Manifest{Tool: "glitcher-test", ConfigHash: "sha256:t2", Seed: 7}
	ctx, cancel := context.WithCancel(context.Background())
	rn, err := runctl.Open(ctx, dir, manifest, false)
	if err != nil {
		t.Fatal(err)
	}
	const killAfter = 37 // rows out of 99
	var done atomic.Int64
	rn.Hooks.AfterUnit = func(string) {
		if done.Add(1) == killAfter {
			cancel()
		}
	}
	killed := run(3, rn)
	cancel()
	if err := rn.Close(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(killed.err, runctl.ErrInterrupted) {
		t.Fatalf("killed scan returned %v, want ErrInterrupted", killed.err)
	}

	rn2, err := runctl.Open(context.Background(), dir, manifest, true)
	if err != nil {
		t.Fatal(err)
	}
	if rn2.Loaded() < killAfter {
		t.Fatalf("checkpoint lost rows: loaded %d, completed at least %d", rn2.Loaded(), killAfter)
	}
	resumed := run(2, rn2)
	if resumed.err != nil {
		t.Fatalf("resume failed: %v", resumed.err)
	}
	if err := rn2.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed.res, serial.res) {
		t.Fatal("resumed Table II differs from uninterrupted serial scan")
	}
	if !bytes.Equal(resumed.trace, serial.trace) {
		t.Errorf("resumed trace differs:\n--- resumed ---\n%s--- serial ---\n%s", resumed.trace, serial.trace)
	}
	if !reflect.DeepEqual(resumed.snap, serial.snap) {
		t.Errorf("resumed metrics differ:\n%s\nvs\n%s", resumed.snap.Text(), serial.snap.Text())
	}
}
