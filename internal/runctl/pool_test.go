package runctl

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// poolKeys names n units u0..u(n-1).
func poolKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("u%d", i)
	}
	return keys
}

// stateless wraps a unit function as a Start that builds no state.
func stateless[R any](unit func(int) (R, error)) func() (func(int) (R, error), func(), error) {
	return func() (func(int) (R, error), func(), error) { return unit, nil, nil }
}

// emitted is an Emit sink that records the order of indices and results.
type emitted[R any] struct {
	idx []int
	res []R
}

func (e *emitted[R]) emit(i int, r R) {
	e.idx = append(e.idx, i)
	e.res = append(e.res, r)
}

func TestPoolEmitsInUnitOrder(t *testing.T) {
	// Every unit waits for its successor, so units complete in reverse;
	// one worker per unit keeps the chain from deadlocking.
	const n = 6
	finished := make([]chan struct{}, n+1)
	for i := range finished {
		finished[i] = make(chan struct{})
	}
	close(finished[n])
	var mu sync.Mutex
	var completed []int
	var out emitted[int]
	err := Pool[int]{
		Keys:    poolKeys(n),
		Workers: n,
		Start: stateless(func(i int) (int, error) {
			<-finished[i+1]
			mu.Lock()
			completed = append(completed, i)
			mu.Unlock()
			close(finished[i])
			return 10 * i, nil
		}),
		Emit: out.emit,
	}.Run(New(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{5, 4, 3, 2, 1, 0}; !reflect.DeepEqual(completed, want) {
		t.Fatalf("completion order %v, want %v", completed, want)
	}
	if want := []int{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(out.idx, want) {
		t.Fatalf("emit order %v, want %v", out.idx, want)
	}
	if want := []int{0, 10, 20, 30, 40, 50}; !reflect.DeepEqual(out.res, want) {
		t.Fatalf("emitted results %v, want %v", out.res, want)
	}
}

// TestPoolSingleWorkerEmitsBetweenUnits pins that one worker is the
// calling goroutine itself: every unit is emitted before the next starts,
// as a progress callback needs.
func TestPoolSingleWorkerEmitsBetweenUnits(t *testing.T) {
	var events []string
	err := Pool[int]{
		Keys:    poolKeys(3),
		Workers: 1,
		Start: stateless(func(i int) (int, error) {
			events = append(events, fmt.Sprintf("run %d", i))
			return i, nil
		}),
		Emit: func(i, _ int) { events = append(events, fmt.Sprintf("emit %d", i)) },
	}.Run(New(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"run 0", "emit 0", "run 1", "emit 1", "run 2", "emit 2"}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("events %v, want %v", events, want)
	}
}

func TestPoolRestoresCheckpointedUnits(t *testing.T) {
	dir := t.TempDir()
	run, err := Open(context.Background(), dir, testManifest(), false)
	if err != nil {
		t.Fatal(err)
	}
	// u0 holds a result the unit would never compute; u2 holds one that
	// Restored rejects, so it must rerun.
	if err := run.Complete("u0", 100); err != nil {
		t.Fatal(err)
	}
	if err := run.Complete("u2", -1); err != nil {
		t.Fatal(err)
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	run, err = Open(context.Background(), dir, testManifest(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()

	var ran []int
	var out emitted[int]
	err = Pool[int]{
		Keys:    poolKeys(4),
		Workers: 1,
		Start: stateless(func(i int) (int, error) {
			ran = append(ran, i)
			return 10 * i, nil
		}),
		Restored: func(r int) bool { return r >= 0 },
		Emit:     out.emit,
	}.Run(run)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 3}; !reflect.DeepEqual(ran, want) {
		t.Fatalf("ran units %v, want %v", ran, want)
	}
	if want := []int{100, 10, 20, 30}; !reflect.DeepEqual(out.res, want) {
		t.Fatalf("emitted %v, want %v", out.res, want)
	}
	// The rerun unit's fresh result is checkpointed too.
	var got int
	if !run.Lookup("u2", &got) || got != 20 {
		t.Fatalf("u2 checkpoint = %d, want 20", got)
	}
}

func TestPoolQuarantineRebuildsWorkerState(t *testing.T) {
	rn := New(context.Background())
	starts, releases := 0, 0
	var out emitted[int]
	err := Pool[int]{
		Keys:    poolKeys(5),
		Workers: 1,
		Start: func() (func(int) (int, error), func(), error) {
			starts++
			state := starts
			unit := func(i int) (int, error) {
				if i == 2 {
					panic("wedged")
				}
				return state, nil
			}
			return unit, func() { releases++ }, nil
		},
		Emit: out.emit,
	}.Run(rn)
	if err != nil {
		t.Fatalf("quarantine must not fail the pool: %v", err)
	}
	if starts != 2 || releases != 2 {
		t.Fatalf("starts=%d releases=%d, want 2 and 2 (rebuild after the panic)", starts, releases)
	}
	if want := []int{0, 1, 3, 4}; !reflect.DeepEqual(out.idx, want) {
		t.Fatalf("emitted units %v, want %v", out.idx, want)
	}
	if want := []int{1, 1, 2, 2}; !reflect.DeepEqual(out.res, want) {
		t.Fatalf("worker state per unit %v, want %v", out.res, want)
	}
	var qe *QuarantineError
	if !errors.As(rn.FinishErr(), &qe) || len(qe.Units) != 1 || qe.Units[0].Unit != "u2" {
		t.Fatalf("FinishErr = %v, want a quarantine naming u2", rn.FinishErr())
	}
}

func TestPoolStopsAfterFatalError(t *testing.T) {
	boom := errors.New("boom")
	var ran []int
	var out emitted[int]
	// A nil run is bare, and the pool still stops on the error.
	err := Pool[int]{
		Keys:    poolKeys(5),
		Workers: 1,
		Start: stateless(func(i int) (int, error) {
			ran = append(ran, i)
			if i == 1 {
				return 0, boom
			}
			return i, nil
		}),
		Emit: out.emit,
	}.Run(nil)
	if !errors.Is(err, boom) {
		t.Fatalf("pool error = %v, want boom", err)
	}
	if want := []int{0, 1}; !reflect.DeepEqual(ran, want) {
		t.Fatalf("ran units %v, want %v: a unit started after the fatal error", ran, want)
	}
	if want := []int{0}; !reflect.DeepEqual(out.idx, want) {
		t.Fatalf("emitted %v, want %v", out.idx, want)
	}

	startErr := errors.New("no state")
	err = Pool[int]{
		Keys:    poolKeys(3),
		Workers: 2,
		Start:   func() (func(int) (int, error), func(), error) { return nil, nil, startErr },
	}.Run(nil)
	if !errors.Is(err, startErr) {
		t.Fatalf("pool error = %v, want the Start error", err)
	}
}

func TestPoolCancellationKeepsCompletedUnits(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rn := New(ctx)
	var before, after []string
	rn.Hooks = Hooks{
		BeforeUnit: func(u string) { before = append(before, u) },
		AfterUnit:  func(u string) { after = append(after, u) },
	}
	var out emitted[int]
	err := Pool[int]{
		Keys:    poolKeys(5),
		Workers: 1,
		Start: stateless(func(i int) (int, error) {
			if i == 2 {
				cancel()
			}
			return i, nil
		}),
		Emit: out.emit,
	}.Run(rn)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("pool error = %v, want ErrInterrupted", err)
	}
	if want := []int{0, 1, 2}; !reflect.DeepEqual(out.idx, want) {
		t.Fatalf("emitted %v, want %v", out.idx, want)
	}
	if want := []string{"u0", "u1", "u2"}; !reflect.DeepEqual(before, want) || !reflect.DeepEqual(after, want) {
		t.Fatalf("hooks before=%v after=%v, want %v for both", before, after, want)
	}
}

func TestPoolWorkerBounds(t *testing.T) {
	for _, workers := range []int{-3, 0, 1, 16} {
		var mu sync.Mutex
		starts := 0
		var out emitted[int]
		err := Pool[int]{
			Keys:    poolKeys(3),
			Workers: workers,
			Start: func() (func(int) (int, error), func(), error) {
				mu.Lock()
				starts++
				mu.Unlock()
				return func(i int) (int, error) { return i, nil }, nil, nil
			},
			Emit: out.emit,
		}.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{0, 1, 2}; !reflect.DeepEqual(out.res, want) {
			t.Fatalf("workers=%d: emitted %v, want %v", workers, out.res, want)
		}
		if starts < 1 || starts > 3 || (workers <= 1 && starts != 1) {
			t.Fatalf("workers=%d: %d worker states built for 3 units", workers, starts)
		}
	}
	// No units: no worker starts.
	err := Pool[int]{
		Start: func() (func(int) (int, error), func(), error) {
			t.Error("Start called with no units")
			return nil, nil, nil
		},
	}.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
}
