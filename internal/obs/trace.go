package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Record is one JSONL trace line. The schema (documented in the README's
// Observability section):
//
//	{"type":"span",   "name":..., "t_us":..., "dur_us":..., "attrs":{...}}
//	{"type":"event",  "name":..., "t_us":..., "attrs":{...}}
//	{"type":"failure","name":..., "t_us":..., "attrs":{...}}
//	{"type":"summary","t_us":..., "attrs":{...}}
//
// t_us is microseconds since the tracer was created (monotonic). Span
// records carry the span's start in t_us and its duration in dur_us.
// Failure records are re-emitted from the post-mortem ring buffer when the
// tracer is closed, so the tail of the file always holds the last
// FailureRing classified-failure executions even under heavy sampling.
// The summary's attrs count the event records written (events_emitted),
// the spans and the failures the ring holds (failures_captured).
//
// Every written record carries the schema version in "v". Version 1
// predates the field, so a record with v of 0 is a v1 record; loaders
// (internal/obs/query) accept both.
type Record struct {
	Type  string         `json:"type"`
	V     int            `json:"v,omitempty"`
	Name  string         `json:"name,omitempty"`
	TUs   int64          `json:"t_us"`
	DurUs int64          `json:"dur_us,omitempty"`
	Attrs map[string]any `json:"attrs,omitempty"`

	lazy func() map[string]any // renders Attrs of a ring record on the way out
}

// TraceSchemaVersion is the trace record schema written by this Tracer.
// v2 added the "v" field itself.
const TraceSchemaVersion = 2

// DefaultFailureRing is the default post-mortem capture depth.
const DefaultFailureRing = 64

// DefaultSampling is the default per-execution record rate: the engines
// keep one record in every DefaultSampling (see Keep).
const DefaultSampling = 1000

// Tracer emits structured trace records to a JSONL sink. A nil *Tracer is
// valid and every method on it is a no-op, so instrumentation can call
// unconditionally. All methods are safe for concurrent use.
//
// The tracer writes every record it is given. Per-execution sampling is
// the engines' job: each work unit's UnitTrace takes the tracer's rate
// and keeps a record by the pure rule Keep, so which records a trace
// holds depends on the work units alone, never on the worker schedule.
type Tracer struct {
	mu      sync.Mutex
	w       io.Writer
	enc     *json.Encoder
	clock   func() time.Time
	start   time.Time
	every   int // per-execution record rate unit traces are kept at
	emitted uint64
	spans   uint64
	ring    []Record
	ringLen int
	next    int
	closed  bool
}

// NewTracer returns a tracer writing JSONL to w (which may be nil: records
// are counted and failures ring-buffered, but nothing is written). The
// sampling rate defaults to DefaultSampling; tune it with SetSampling.
func NewTracer(w io.Writer) *Tracer {
	t := &Tracer{
		w:     w,
		clock: time.Now,
		every: DefaultSampling,
		ring:  make([]Record, DefaultFailureRing),
	}
	if w != nil {
		t.enc = json.NewEncoder(w)
	}
	t.start = t.clock()
	return t
}

// SetClock replaces the tracer's time source (tests use a fixed clock for
// golden files). It also resets the tracer's start instant.
func (t *Tracer) SetClock(clock func() time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clock = clock
	t.start = clock()
}

// SetSampling sets the per-execution record rate: unit traces keep about
// one record in every n (see Keep), and none when n <= 0. Spans,
// milestone events and the failure ring are always kept.
func (t *Tracer) SetSampling(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.every = max(n, 0)
}

// SetFailureRing resizes the post-mortem ring buffer to keep the last n
// failure records.
func (t *Tracer) SetFailureRing(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ring = make([]Record, max(n, 0))
	t.ringLen, t.next = 0, 0
}

// settings returns the sampling rate and the failure ring's capacity, the
// two settings a unit trace is kept under.
func (t *Tracer) settings() (every, ring int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.every, len(t.ring)
}

func (t *Tracer) sinceUs() int64 {
	return t.clock().Sub(t.start).Microseconds()
}

func (t *Tracer) write(rec Record) {
	if t.enc != nil && !t.closed {
		rec.V = TraceSchemaVersion
		_ = t.enc.Encode(rec) // tracing must never fail the experiment
	}
}

// Span measures one timed region.
type Span struct {
	t     *Tracer
	name  string
	attrs map[string]any
	start time.Time
	tUs   int64
}

// StartSpan opens a span; call End to record it. Attrs may be nil.
func (t *Tracer) StartSpan(name string, attrs map[string]any) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return &Span{t: t, name: name, attrs: attrs, start: t.clock(), tUs: t.sinceUs()}
}

// End records the span with its monotonic duration. Safe on a nil span.
func (s *Span) End() {
	if s == nil || s.t == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans++
	t.write(Record{
		Type:  "span",
		Name:  s.name,
		TUs:   s.tUs,
		DurUs: t.clock().Sub(s.start).Microseconds(),
		Attrs: s.attrs,
	})
}

// Event writes one event record.
func (t *Tracer) Event(name string, attrs map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.emitted++
	t.write(Record{Type: "event", Name: name, TUs: t.sinceUs(), Attrs: attrs})
}

// Failure captures a failed execution into the post-mortem ring buffer
// (always, regardless of sampling). The ring's contents are appended to
// the sink as "failure" records when the tracer is closed.
func (t *Tracer) Failure(name string, attrs map[string]any) {
	t.failure(name, attrs, nil)
}

// failure is Failure with optionally deferred attrs: lazy, when non-nil,
// renders them only if the record is still in the ring when it is read.
func (t *Tracer) failure(name string, attrs map[string]any, lazy func() map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) == 0 {
		return
	}
	t.ring[t.next] = Record{Type: "failure", Name: name, TUs: t.sinceUs(), Attrs: attrs, lazy: lazy}
	t.next = (t.next + 1) % len(t.ring)
	if t.ringLen < len(t.ring) {
		t.ringLen++
	}
}

// Failures returns the ring buffer's contents, oldest first.
func (t *Tracer) Failures() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.failuresLocked()
}

func (t *Tracer) failuresLocked() []Record {
	out := make([]Record, 0, t.ringLen)
	for i := 0; i < t.ringLen; i++ {
		idx := (t.next - t.ringLen + i + len(t.ring)) % len(t.ring)
		rec := t.ring[idx]
		if rec.lazy != nil {
			rec.Attrs, rec.lazy = rec.lazy(), nil
		}
		out = append(out, rec)
	}
	return out
}

// Close flushes the failure ring and a summary record to the sink. The
// tracer is unusable afterwards. Safe on a nil tracer.
func (t *Tracer) Close() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	for _, rec := range t.failuresLocked() {
		t.write(rec)
	}
	t.write(Record{
		Type: "summary",
		TUs:  t.sinceUs(),
		Attrs: map[string]any{
			"events_emitted":    t.emitted,
			"spans":             t.spans,
			"failures_captured": uint64(t.ringLen),
		},
	})
	t.closed = true
}
