package runctl

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"glitchlab/internal/obs"
)

func testManifest() Manifest {
	return Manifest{Tool: "testtool", ConfigHash: "sha256:abcd", Seed: 7}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := WriteFileAtomic(path, []byte("first\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("second\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "second\n" {
		t.Fatalf("content = %q", data)
	}
	// No stray temp files may survive a successful write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory not clean after atomic writes: %v", entries)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	type cell struct {
		Hits  uint64            `json:"hits"`
		ByVal map[uint32]uint64 `json:"by_val"`
	}
	run, err := Open(context.Background(), dir, testManifest(), false)
	if err != nil {
		t.Fatal(err)
	}
	want := cell{Hits: 42, ByVal: map[uint32]uint64{0xdead: 3, 1: 9}}
	if err := run.Complete("unit a", want); err != nil {
		t.Fatal(err)
	}
	if err := run.Complete("unit b", cell{Hits: 1}); err != nil {
		t.Fatal(err)
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}

	resumed, err := Open(context.Background(), dir, testManifest(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if resumed.Loaded() != 2 {
		t.Fatalf("Loaded = %d, want 2", resumed.Loaded())
	}
	var got cell
	if !resumed.Lookup("unit a", &got) {
		t.Fatal("unit a not found after resume")
	}
	if got.Hits != want.Hits || got.ByVal[0xdead] != 3 || got.ByVal[1] != 9 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if resumed.Lookup("unit c", nil) {
		t.Fatal("phantom unit reported done")
	}

	// The closed manifest must carry final totals.
	var m Manifest
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.UnitsDone != 2 || m.UnitsQuarantined != 0 || m.Tool != "testtool" {
		t.Fatalf("manifest totals wrong: %+v", m)
	}
}

func TestCheckpointToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	run, err := Open(context.Background(), dir, testManifest(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Complete("whole", map[string]int{"n": 1}); err != nil {
		t.Fatal(err)
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn, unparseable final line.
	cpath := filepath.Join(dir, CheckpointName)
	f, err := os.OpenFile(cpath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"unit":"torn","da`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	resumed, err := Open(context.Background(), dir, testManifest(), true)
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	defer resumed.Close()
	if !resumed.Lookup("whole", nil) {
		t.Fatal("whole unit lost")
	}
	if resumed.Lookup("torn", nil) {
		t.Fatal("torn unit must rerun, not count as done")
	}
}

func TestCheckpointRejectsMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	cpath := filepath.Join(dir, CheckpointName)
	run, err := Open(context.Background(), dir, testManifest(), false)
	if err != nil {
		t.Fatal(err)
	}
	run.Close()
	body := `{"unit":"a"}` + "\ngarbage not json\n" + `{"unit":"b"}` + "\n"
	if err := os.WriteFile(cpath, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(context.Background(), dir, testManifest(), true); err == nil {
		t.Fatal("mid-file corruption must refuse to load")
	}
}

func TestResumeRefusesDrift(t *testing.T) {
	dir := t.TempDir()
	run, err := Open(context.Background(), dir, testManifest(), false)
	if err != nil {
		t.Fatal(err)
	}
	run.Close()

	cases := []Manifest{
		{Tool: "othertool", ConfigHash: "sha256:abcd", Seed: 7},
		{Tool: "testtool", ConfigHash: "sha256:ffff", Seed: 7},
		{Tool: "testtool", ConfigHash: "sha256:abcd", Seed: 8},
	}
	for _, m := range cases {
		_, err := Open(context.Background(), dir, m, true)
		var de *DriftError
		if !errors.As(err, &de) {
			t.Fatalf("manifest %+v: got %v, want DriftError", m, err)
		}
	}
}

func TestFreshOpenRefusesExistingCheckpoint(t *testing.T) {
	dir := t.TempDir()
	run, err := Open(context.Background(), dir, testManifest(), false)
	if err != nil {
		t.Fatal(err)
	}
	run.Close()
	if _, err := Open(context.Background(), dir, testManifest(), false); err == nil {
		t.Fatal("fresh open over an existing checkpoint must refuse")
	} else if !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("refusal should mention -resume: %v", err)
	}
}

func TestProtectQuarantinesPanic(t *testing.T) {
	dir := t.TempDir()
	run, err := Open(context.Background(), dir, testManifest(), false)
	if err != nil {
		t.Fatal(err)
	}
	err = run.Protect("poisoned", func() error {
		panic("boom")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want PanicError", err)
	}
	if pe.Unit != "poisoned" || !strings.Contains(string(pe.Stack), "runctl") {
		t.Fatalf("panic error incomplete: %+v", pe)
	}
	if err := run.Protect("fine", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	q := run.Quarantined()
	if len(q) != 1 || q[0].Unit != "poisoned" || q[0].Panic != "boom" {
		t.Fatalf("quarantine list wrong: %+v", q)
	}
	ferr := run.FinishErr()
	var qe *QuarantineError
	if !errors.As(ferr, &qe) || len(qe.Units) != 1 {
		t.Fatalf("FinishErr = %v", ferr)
	}
	if !strings.Contains(ferr.Error(), "poisoned") {
		t.Fatalf("FinishErr must name the unit: %v", ferr)
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}

	// A resumed run retries the quarantined unit rather than skipping it.
	resumed, err := Open(context.Background(), dir, testManifest(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if resumed.Lookup("poisoned", nil) {
		t.Fatal("quarantined unit must not count as done on resume")
	}
}

func TestErrWrapsInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	run := New(ctx)
	if err := run.Err(); err != nil {
		t.Fatalf("live run: %v", err)
	}
	cancel()
	if err := run.Err(); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("canceled run: %v", err)
	}
}

func TestNilRunIsInert(t *testing.T) {
	var run *Run
	if err := run.Err(); err != nil {
		t.Fatal(err)
	}
	if run.Lookup("x", nil) {
		t.Fatal("nil run reported work done")
	}
	if err := run.Complete("x", 1); err != nil {
		t.Fatal(err)
	}
	if err := run.FinishErr(); err != nil {
		t.Fatal(err)
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	called := false
	if err := run.Protect("x", func() error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("nil Protect must still run the unit")
	}
	// A nil run must not swallow panics: bare library use crashes loud.
	defer func() {
		if recover() == nil {
			t.Fatal("nil Protect must propagate panics")
		}
	}()
	_ = run.Protect("x", func() error { panic("loud") })
}

// TestNewRunStoresNothing pins New's contract: a cancellation-only run
// checkpoints nothing, so Lookup misses even after Complete, while the
// completed-units counter and AfterUnit still see every unit.
func TestNewRunStoresNothing(t *testing.T) {
	rn := New(context.Background())
	var after []string
	rn.Hooks.AfterUnit = func(u string) { after = append(after, u) }
	completed := obs.Default.Counter(MetricUnitsCompleted)
	before := completed.Value()
	if err := rn.Complete("unit a", 7); err != nil {
		t.Fatal(err)
	}
	var got int
	if rn.Lookup("unit a", &got) {
		t.Fatal("Lookup hit on a run without a directory")
	}
	if d := completed.Value() - before; d != 1 {
		t.Fatalf("%s grew by %d, want 1", MetricUnitsCompleted, d)
	}
	if !reflect.DeepEqual(after, []string{"unit a"}) {
		t.Fatalf("AfterUnit saw %v", after)
	}
}

func TestExitCode(t *testing.T) {
	if c := ExitCode(nil); c != 0 {
		t.Fatalf("nil: %d", c)
	}
	wrapped := errors.Join(errors.New("partial"), ErrInterrupted)
	if c := ExitCode(wrapped); c != ExitInterrupted {
		t.Fatalf("interrupted: %d", c)
	}
	if c := ExitCode(errors.New("boom")); c != 1 {
		t.Fatalf("failure: %d", c)
	}
}

func TestConfigHashStableAndSensitive(t *testing.T) {
	type cfg struct {
		Model    string
		MaxFlips int
	}
	a := ConfigHash(cfg{"and", 16})
	b := ConfigHash(cfg{"and", 16})
	c := ConfigHash(cfg{"or", 16})
	if a != b {
		t.Fatalf("hash unstable: %s vs %s", a, b)
	}
	if a == c {
		t.Fatal("hash insensitive to config change")
	}
	if !strings.HasPrefix(a, "sha256:") {
		t.Fatalf("hash %q lacks scheme prefix", a)
	}
}

func TestStartDeadlineCancels(t *testing.T) {
	f := &CLIFlags{Deadline: 10 * time.Millisecond}
	run, cancel, err := f.Start("testtool", "sha256:abcd", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	defer run.Close()
	deadline := time.After(5 * time.Second)
	for run.Err() == nil {
		select {
		case <-deadline:
			t.Fatal("deadline never fired")
		case <-time.After(time.Millisecond):
		}
	}
	if !errors.Is(run.Err(), ErrInterrupted) {
		t.Fatalf("deadline error: %v", run.Err())
	}
}

func TestStartResumeRequiresDir(t *testing.T) {
	f := &CLIFlags{Resume: true}
	if _, _, err := f.Start("testtool", "x", 1); err == nil {
		t.Fatal("-resume without -run-dir must refuse")
	}
}

func TestOutputCommitAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.txt")
	o := NewOutput(path)
	if _, err := o.Writer().Write([]byte("table\n")); err != nil {
		t.Fatal(err)
	}
	// Nothing visible before Commit: an interrupted run leaves no file.
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("output leaked before commit: %v", err)
	}
	if err := o.Commit(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "table\n" {
		t.Fatalf("content = %q", data)
	}
}
