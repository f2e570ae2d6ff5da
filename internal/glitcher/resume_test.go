package glitcher

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"glitchlab/internal/runctl"
)

// TestTable2ResumeByteIdentical kills a sharded Table II scan after a
// prefix of completed width rows (via injected cancellation), resumes it
// from the checkpoint with a different worker count, and requires the
// merged result to be deeply equal to an uninterrupted serial scan.
func TestTable2ResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid scan")
	}
	m := NewModel(7)
	serial, err := m.RunTable2(GuardWhileNeq, 1, nil)
	if err != nil {
		t.Fatal(err)
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
	_, runErr := m.RunTable2(GuardWhileNeq, 3, rn)
	cancel()
	if err := rn.Close(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(runErr, runctl.ErrInterrupted) {
		t.Fatalf("killed scan returned %v, want ErrInterrupted", runErr)
	}

	rn2, err := runctl.Open(context.Background(), dir, manifest, true)
	if err != nil {
		t.Fatal(err)
	}
	if rn2.Loaded() < killAfter {
		t.Fatalf("checkpoint lost rows: loaded %d, completed at least %d", rn2.Loaded(), killAfter)
	}
	resumed, err := m.RunTable2(GuardWhileNeq, 2, rn2)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if err := rn2.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, serial) {
		t.Fatal("resumed Table II differs from uninterrupted serial scan")
	}
}
