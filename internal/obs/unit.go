package obs

// Keep reports whether record j of a work unit is kept at one-in-every
// sampling; seed is UnitSeed of the unit's key. every == 1 keeps every
// record and every <= 0 none. Otherwise record j is kept when
// splitmix64(seed+j) % every == 0, which keeps about one in every. The
// rule is a pure function of (unit key, j), so a trace holds the same
// records at any worker count and across a kill and a resume.
func Keep(seed, j uint64, every int) bool {
	return every == 1 || every > 1 && splitmix64(seed+j)%uint64(every) == 0
}

// UnitSeed is the 64-bit FNV-1a hash of a work unit's key.
func UnitSeed(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// UnitTrace is one work unit's share of a trace: the records Keep selects
// and the unit's last Ring failures. The unit fills it in plain memory on
// its worker. It travels inside the unit's result, checkpoint included,
// and the caller writes it with WriteUnit in unit order. A nil
// *UnitTrace, which a nil tracer gives, records nothing.
type UnitTrace[T any] struct {
	Every  int `json:"every"` // the sampling rate Kept was chosen at
	Ring   int `json:"ring"`  // the failure-ring capacity
	Kept   []T `json:"kept,omitempty"`
	Failed []T `json:"failed,omitempty"` // a ring: the oldest is at Next
	Next   int `json:"next,omitempty"`

	seed, j uint64
}

// NewUnitTrace starts the share of t's trace of the unit named key, at
// t's sampling rate and ring capacity. It returns nil when t is nil.
func NewUnitTrace[T any](t *Tracer, key string) *UnitTrace[T] {
	if t == nil {
		return nil
	}
	every, ring := t.settings()
	return &UnitTrace[T]{Every: every, Ring: ring, seed: UnitSeed(key)}
}

// Sampled moves to the unit's next candidate record and reports whether
// Keep selects it. Call it once per candidate, in execution order, and
// build the record only when it is kept.
func (u *UnitTrace[T]) Sampled() bool {
	u.j++
	return Keep(u.seed, u.j-1, u.Every)
}

// Fail captures one failed execution, keeping the unit's last Ring.
func (u *UnitTrace[T]) Fail(rec T) {
	switch {
	case u.Ring <= 0:
	case len(u.Failed) < u.Ring:
		u.Failed = append(u.Failed, rec)
	default:
		u.Failed[u.Next] = rec
		u.Next = (u.Next + 1) % u.Ring
	}
}

// Fits reports whether u, restored from a checkpoint, can stand in for a
// unit trace started under t: it must have been kept at t's sampling rate
// and ring capacity. Anything fits a nil tracer.
func (u *UnitTrace[T]) Fits(t *Tracer) bool {
	if t == nil {
		return true
	}
	every, ring := t.settings()
	return u != nil && u.Every == every && u.Ring == ring
}

// WriteUnit writes u's kept records to t as events named event and
// pushes its failures, oldest first, into t's ring as failures named
// failure. attrs renders one record; a failure is rendered only if it is
// still in the ring when the tracer closes. Call it on one goroutine, in
// unit order, so the trace and the ring hold the same records in the
// same order at any worker count.
func WriteUnit[T any](t *Tracer, u *UnitTrace[T], event, failure string, attrs func(T) map[string]any) {
	if t == nil || u == nil {
		return
	}
	for _, rec := range u.Kept {
		t.Event(event, attrs(rec))
	}
	for i := range u.Failed {
		rec := u.Failed[(u.Next+i)%len(u.Failed)]
		t.failure(failure, nil, func() map[string]any { return attrs(rec) })
	}
}
