package runctl

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Pool runs a list of independent work units on worker goroutines under a
// run controller. It is the one scheduler behind every engine's -workers
// knob: campaign (condition, flip-count) units, scan width rows, Table VI
// cells and corpus lint units. It restores the units the checkpoint
// already holds, runs the rest inside Protect and Complete, rebuilds a
// worker's state after a quarantine, stops dispatching on the first fatal
// error or on cancellation, and emits results in unit order on the calling
// goroutine. One worker runs exactly the code many do, so a result depends
// on the units alone, never on the worker count.
//
// An observed engine returns each unit's observation (counters, sampled
// trace records, failures) inside the unit's result. The checkpoint then
// stores it with the result, Restored can reject a unit restored without
// one, and Emit merges it into the registry and the tracer. That single
// ordered merge is all the synchronization observation needs.
type Pool[R any] struct {
	// Keys names every unit, in dispatch order, which is also emit order.
	// A key is the unit's checkpoint record name.
	Keys []string
	// Workers is the number of workers, the calling goroutine included,
	// clamped to [1, units left to run].
	Workers int
	// Start builds one worker's state and returns the function that runs
	// unit i on it. A worker whose unit panicked calls Start again before
	// its next unit.
	Start func() (unit func(i int) (R, error), err error)
	// Restored, when non-nil, vets a result loaded from the checkpoint; a
	// unit whose result it rejects reruns.
	Restored func(r R) bool
	// Emit, when non-nil, receives every restored or completed unit's
	// result in unit order, on the goroutine that called Run. Quarantined
	// and unrun units are skipped.
	Emit func(i int, r R)
}

// errAbandoned marks a unit the pool never started because another unit
// failed.
var errAbandoned = errors.New("runctl: unit abandoned after an earlier failure")

// poolUnit is one unit's slot; done is closed once err and r are final.
type poolUnit[R any] struct {
	r    R
	err  error
	done chan struct{}
}

// poolRun is one execution of a Pool. emitted, fatal and interrupted
// belong to the calling goroutine.
type poolRun[R any] struct {
	Pool[R]
	rn      *Run
	units   []poolUnit[R]
	pending []int
	next    atomic.Int64
	failed  atomic.Bool

	emitted            int
	fatal, interrupted error
}

// Run executes every unit under rn. A nil rn runs bare: nothing is
// restored or checkpointed, and a unit's panic is not recovered. Run
// returns the first fatal error in unit order, or, when cancellation cut
// units short, an error wrapping ErrInterrupted. Quarantined units are left
// to rn.FinishErr, so that one run can span several pools. Every worker
// has exited when Run returns.
func (p Pool[R]) Run(rn *Run) error {
	s := &poolRun[R]{Pool: p, rn: rn, units: make([]poolUnit[R], len(p.Keys))}
	for i := range s.units {
		u := &s.units[i]
		u.done = make(chan struct{})
		if rn.Lookup(p.Keys[i], &u.r) && (p.Restored == nil || p.Restored(u.r)) {
			rn.skipped.Inc()
			close(u.done)
			continue
		}
		s.pending = append(s.pending, i)
	}

	var wg sync.WaitGroup
	for w := 1; w < min(max(p.Workers, 1), len(s.pending)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.work(nil)
		}()
	}
	defer wg.Wait()
	// The calling goroutine is the first worker. Between its own units it
	// emits whatever prefix of the units is final, so a single worker
	// never hands a unit to another goroutine.
	s.work(func() { s.emit(false) })
	// A worker closes every unit it takes, and the workers take every
	// pending unit, so this drain always finishes.
	s.emit(true)
	if s.fatal != nil {
		return s.fatal
	}
	return s.interrupted
}

// emit passes final units to Emit in unit order, from the first one not
// yet emitted. With wait it waits for every unit; without, it stops at the
// first one still running.
func (s *poolRun[R]) emit(wait bool) {
	for ; s.emitted < len(s.units); s.emitted++ {
		i := s.emitted
		u := &s.units[i]
		if wait {
			<-u.done
		} else {
			select {
			case <-u.done:
			default:
				return
			}
		}
		var pe *PanicError
		switch {
		case u.err == nil:
			if s.Emit != nil {
				s.Emit(i, u.r)
			}
		case errors.As(u.err, &pe), errors.Is(u.err, errAbandoned):
			// Quarantined (rn.FinishErr names it) or never started.
		case errors.Is(u.err, ErrInterrupted):
			if s.interrupted == nil {
				s.interrupted = u.err
			}
		case s.fatal == nil:
			s.fatal = u.err
		}
	}
}

// work is one worker: it takes pending units until none are left,
// building its state on first use and again after a quarantine. after,
// when non-nil, runs after each unit.
func (s *poolRun[R]) work(after func()) {
	var unit func(int) (R, error)
	for {
		j := int(s.next.Add(1)) - 1
		if j >= len(s.pending) {
			return
		}
		i := s.pending[j]
		u := &s.units[i]
		switch {
		case s.failed.Load():
			u.err = errAbandoned
		case s.rn.Err() != nil:
			u.err = s.rn.Err()
		case unit == nil:
			unit, u.err = s.Start()
		}
		if u.err == nil {
			key := s.Keys[i]
			u.err = s.rn.Protect(key, func() error {
				r, err := unit(i)
				if err != nil {
					return err
				}
				u.r = r
				return s.rn.Complete(key, r)
			})
		}
		var pe *PanicError
		switch {
		case errors.As(u.err, &pe):
			// The worker's state may be wedged mid-unit: rebuild it.
			unit = nil
		case u.err != nil && !errors.Is(u.err, errAbandoned) && !errors.Is(u.err, ErrInterrupted):
			s.failed.Store(true)
		}
		close(u.done)
		if after != nil {
			after()
		}
	}
}
