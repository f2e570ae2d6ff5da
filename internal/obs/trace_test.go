package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fixedClock advances 100µs per reading, making every t_us/dur_us in the
// trace deterministic for the golden file.
func fixedClock() func() time.Time {
	base := time.Unix(1700000000, 0)
	n := 0
	return func() time.Time {
		n++
		return base.Add(time.Duration(n) * 100 * time.Microsecond)
	}
}

func TestTracerGolden(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.SetClock(fixedClock())
	tr.SetFailureRing(2)

	span := tr.StartSpan("campaign.run", map[string]any{"model": "AND"})
	tr.Event("campaign.exec", map[string]any{"mask": "0x0001", "outcome": "Success"})
	tr.Event("campaign.exec", map[string]any{"mask": "0x0002", "outcome": "Detected"})
	tr.Failure("campaign.exec", map[string]any{"mask": "0x0003", "outcome": "Failed"})
	tr.Failure("campaign.exec", map[string]any{"mask": "0x0004", "outcome": "Failed"})
	tr.Failure("campaign.exec", map[string]any{"mask": "0x0005", "outcome": "Failed"})
	span.End()
	tr.Close()

	// Every line must parse as a Record on its own.
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	lines := 0
	for sc.Scan() {
		lines++
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", lines, err, sc.Text())
		}
		if rec.Type == "" {
			t.Fatalf("line %d has no type: %s", lines, sc.Text())
		}
	}
	// 2 events + 1 span + 2 ring failures (ring size 2, oldest of 3
	// dropped) + 1 summary.
	if lines != 6 {
		t.Errorf("trace has %d lines, want 6:\n%s", lines, buf.String())
	}

	path := filepath.Join("testdata", "trace.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace drifted from golden file.\n--- got ---\n%s--- want ---\n%s(run with -update to regenerate)",
			buf.String(), want)
	}
}

// TestTracerSampling pins the sampling contract: the tracer writes every
// event it is given and only carries the rate, and the engines' keep rule
// is a pure function of (unit key, index) that keeps about one record in
// every.
func TestTracerSampling(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	if tr.every != DefaultSampling {
		t.Errorf("default sampling = %d, want %d", tr.every, DefaultSampling)
	}
	tr.SetSampling(3)
	for i := 0; i < 10; i++ {
		tr.Event("e", nil)
	}
	if lines := bytes.Count(buf.Bytes(), []byte("\n")); tr.emitted != 10 || lines != 10 {
		t.Errorf("emitted = %d (%d lines), want every one of 10 events", tr.emitted, lines)
	}
	if tr.every != 3 {
		t.Errorf("sampling = %d after SetSampling(3)", tr.every)
	}
	tr.SetSampling(-2)
	if tr.every != 0 {
		t.Errorf("sampling = %d after SetSampling(-2), want 0", tr.every)
	}

	const n = 100_000
	seed, other := UnitSeed("campaign model=and zero=false pad=false cond=beq k=3"),
		UnitSeed("campaign model=and zero=false pad=false cond=bne k=3")
	for _, every := range []int{1, 7, 1000} {
		kept, both := 0, 0
		for j := uint64(0); j < n; j++ {
			k := Keep(seed, j, every)
			if k != Keep(seed, j, every) {
				t.Fatalf("Keep(%d, %d) is not a pure function", j, every)
			}
			if k {
				kept++
				if Keep(other, j, every) {
					both++
				}
			}
		}
		want := n / every
		if kept < want*4/5 || kept > want*6/5 {
			t.Errorf("every=%d kept %d of %d, want about %d", every, kept, n, want)
		}
		if every > 1 && both > 2*want/every+10 {
			t.Errorf("every=%d: two units keep %d of the same indices, want about %d",
				every, both, want/every)
		}
	}
	for j := uint64(0); j < 100; j++ {
		if Keep(seed, j, 0) || Keep(seed, j, -1) {
			t.Fatal("every <= 0 must keep nothing")
		}
	}
}

// TestUnitTraceWritesInOrder checks a unit trace end to end: Fail keeps
// the unit's last Ring failures, Fits matches the tracer's settings, and
// WriteUnit writes the kept records and pushes the failures into the
// tracer's ring oldest first.
func TestUnitTraceWritesInOrder(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.SetClock(fixedClock())
	tr.SetSampling(1)
	tr.SetFailureRing(3)
	u := NewUnitTrace[int](tr, "unit")
	for i := 0; i < 20; i++ {
		if !u.Sampled() {
			t.Fatal("every = 1 must keep every record")
		}
		u.Kept = append(u.Kept, i)
		u.Fail(i)
		if len(u.Failed) > u.Ring {
			t.Fatalf("%d failures kept, want at most %d", len(u.Failed), u.Ring)
		}
	}
	if want := []int{18, 19, 17}; !reflect.DeepEqual(u.Failed, want) || u.Next != 2 {
		t.Fatalf("failure ring %v next %d, want %v next 2", u.Failed, u.Next, want)
	}
	if !u.Fits(tr) || !u.Fits(nil) {
		t.Error("a unit trace must fit the tracer it was made under")
	}
	var none *UnitTrace[int]
	if none.Fits(tr) {
		t.Error("a missing unit trace must not fit an observed run")
	}
	tr.SetSampling(2)
	if u.Fits(tr) {
		t.Error("a unit trace kept at another sampling rate must not fit")
	}

	rendered := 0
	WriteUnit(tr, u, "e", "f", func(i int) map[string]any {
		rendered++
		return map[string]any{"i": i}
	})
	if rendered != 20 {
		t.Errorf("rendered %d records before Close, want the 20 kept ones only", rendered)
	}
	got := tr.Failures()
	if len(got) != 3 {
		t.Fatalf("ring holds %d, want 3", len(got))
	}
	for k, rec := range got {
		if want := 17 + k; rec.Attrs["i"] != want {
			t.Errorf("ring[%d].i = %v, want %d", k, rec.Attrs["i"], want)
		}
	}
}

func TestFailureRingEviction(t *testing.T) {
	tr := NewTracer(nil) // nil sink: ring still works
	tr.SetFailureRing(3)
	for i := 0; i < 5; i++ {
		tr.Failure("f", map[string]any{"i": i})
	}
	got := tr.Failures()
	if len(got) != 3 {
		t.Fatalf("ring holds %d, want 3", len(got))
	}
	for i, rec := range got {
		if want := i + 2; rec.Attrs["i"] != want { // oldest first: 2, 3, 4
			t.Errorf("ring[%d].i = %v, want %d", i, rec.Attrs["i"], want)
		}
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.SetClock(fixedClock())
	tr.SetSampling(5)
	tr.SetFailureRing(5)
	tr.Event("e", nil)
	tr.Failure("f", nil)
	span := tr.StartSpan("s", nil)
	span.End()
	if got := tr.Failures(); got != nil {
		t.Errorf("nil tracer failures = %v", got)
	}
	tr.Close()
}

func TestTracerCloseIdempotent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Close()
	n := buf.Len()
	tr.Close()
	tr.Event("e", nil) // after close: counted but never written
	if buf.Len() != n {
		t.Errorf("writes after Close: %q", buf.String())
	}
}
