package glitcher

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"glitchlab/internal/obs"
)

func TestGridUntilStops(t *testing.T) {
	n := 0
	full := GridUntil(func(p Params) bool {
		n++
		return n < 100
	})
	if full || n != 100 {
		t.Fatalf("GridUntil visited %d points (full=%v), want exactly 100 then stop", n, full)
	}
	n = 0
	if !GridUntil(func(Params) bool { n++; return true }) || n != GridSize {
		t.Fatalf("GridUntil without cancel visited %d points, want %d", n, GridSize)
	}
}

func TestGridBandMatchesGridOrder(t *testing.T) {
	var whole, banded []Params
	Grid(func(p Params) { whole = append(whole, p) })
	for w := -ParamRange; w <= ParamRange; w++ {
		GridBand(w, w+1, func(p Params) bool {
			banded = append(banded, p)
			return true
		})
	}
	if !reflect.DeepEqual(whole, banded) {
		t.Fatal("concatenated single-row GridBand traversal differs from Grid order")
	}
}

// TestTable1WorkersMatchesSerial is the scan-side golden-equivalence
// contract: a band-sharded Table I scan must reproduce the serial result
// field for field, and leave the identical observer state.
func TestTable1WorkersMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid scan")
	}
	m := NewModel(7)
	sreg := obs.NewRegistry()
	m.Obs = NewObs(sreg, nil)
	serial, err := m.RunTable1(GuardWhileA, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	preg := obs.NewRegistry()
	m.Obs = NewObs(preg, nil)
	parallel, err := m.RunTable1(GuardWhileA, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("sharded Table I differs from serial")
	}
	if ss, ps := sreg.Snapshot(), preg.Snapshot(); !reflect.DeepEqual(ss, ps) {
		t.Errorf("sharded observer state differs from serial:\n%s\nvs\n%s", ps.Text(), ss.Text())
	}
}

func TestTable2WorkersMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid scan")
	}
	m := NewModel(7)
	serial, err := m.RunTable2(GuardWhileNeq, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := m.RunTable2(GuardWhileNeq, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("sharded Table II differs from serial")
	}
}

func TestTable3WorkersMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid scan")
	}
	m := NewModel(7)
	serial, err := m.RunTable3(GuardWhileNotA, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := m.RunTable3(GuardWhileNotA, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("sharded Table III differs from serial")
	}
}

// TestObservedScanWorkersIdentical runs one guard's observed Table I scan
// at one and three workers, with a constant tracer clock and sampling on,
// and requires byte-identical traces and equal metrics snapshots: rows
// merge their observations in row order, whatever the schedule.
func TestObservedScanWorkersIdentical(t *testing.T) {
	run := func(workers int) ([]byte, obs.Snapshot) {
		var buf bytes.Buffer
		tr := obs.NewTracer(&buf)
		tr.SetClock(func() time.Time { return time.Unix(1700000000, 0) })
		tr.SetSampling(3)
		reg := obs.NewRegistry()
		m := NewModel(11)
		m.Obs = NewObs(reg, tr)
		if _, err := m.RunTable1(GuardWhileA, workers, nil); err != nil {
			t.Fatal(err)
		}
		tr.Close()
		return buf.Bytes(), reg.Snapshot()
	}
	serialTrace, serialSnap := run(1)
	parallelTrace, parallelSnap := run(3)
	for _, want := range []string{`"name":"scan.success"`, `"type":"failure"`, `"name":"scan.table1"`} {
		if !bytes.Contains(serialTrace, []byte(want)) {
			t.Fatalf("trace holds no %s record:\n%s", want, serialTrace)
		}
	}
	if !bytes.Equal(serialTrace, parallelTrace) {
		t.Errorf("trace differs at 3 workers:\n--- 1 worker ---\n%s--- 3 workers ---\n%s",
			serialTrace, parallelTrace)
	}
	if !reflect.DeepEqual(serialSnap, parallelSnap) {
		t.Errorf("metrics differ at 3 workers:\n%s\nvs\n%s", serialSnap.Text(), parallelSnap.Text())
	}
}
