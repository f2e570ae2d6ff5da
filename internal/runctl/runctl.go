// Package runctl is the run controller for glitchlab's long-running
// engines: the Section IV mutation campaigns, the Section V grid scans and
// parameter searches, and the Table VI defense-efficacy matrix. Those
// experiments are exhaustive sweeps — hours of work on a large
// configuration — and the paper's physical counterparts (ChipWhisperer
// scans) are interrupted and resumed constantly. runctl makes the
// simulated ones behave the same way:
//
//   - cancellation: a Run wraps a context.Context; engines check Err()
//     between work units and drain cleanly on cancel or deadline,
//     returning partial results together with a typed ErrInterrupted;
//   - durable checkpointing: every completed work unit is appended to a
//     crash-safe JSONL checkpoint (append + fsync per record) in a run
//     directory, next to an atomically-written manifest recording the
//     tool, config hash, seed and unit totals; a resumed run skips
//     completed units and merges their checkpointed results, producing
//     byte-identical output versus an uninterrupted run;
//   - panic isolation: a panicking work unit is recovered, recorded as a
//     quarantined unit (with its stack) in the checkpoint and the obs
//     failure ring, and the run continues; it fails at the end with a
//     QuarantineError naming the poisoned units instead of crashing
//     mid-flight.
//
// A nil *Run is valid everywhere and disables all three behaviors, so
// engines thread a *Run unconditionally and bare library calls keep their
// original semantics (no checkpoint files, panics crash loud). Pool runs
// an engine's work units under a Run on worker goroutines.
package runctl

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"glitchlab/internal/chaos"
	"glitchlab/internal/obs"
)

// ErrInterrupted is the typed cancellation error every engine returns when
// a run is cut short by a context cancel, deadline or termination signal.
// Match with errors.Is; the partial results returned alongside it cover
// the units completed before the interruption, all of which are already in
// the checkpoint.
var ErrInterrupted = errors.New("run interrupted")

// ExitInterrupted is the process exit code the experiment CLIs use for an
// interrupted run (distinct from 1, a real failure), so scripts can tell
// "resume me" apart from "fix me".
const ExitInterrupted = 3

// Checkpoint file names inside a run directory.
const (
	ManifestName   = "manifest.json"
	CheckpointName = "checkpoint.jsonl"
)

// Metric names the run controller maintains in the obs registry.
const (
	MetricUnitsCompleted   = "runctl.units_completed_total"
	MetricUnitsSkipped     = "runctl.units_skipped_total" // resumed from checkpoint
	MetricUnitsQuarantined = "runctl.units_quarantined_total"
	MetricFlushLatency     = "runctl.checkpoint_flush_us" // append+fsync per unit
)

// manifestVersion is bumped whenever the checkpoint format changes
// incompatibly; a resume across versions is refused as config drift.
const manifestVersion = 1

// Manifest identifies what a run directory's checkpoint belongs to. It is
// written atomically (temp file + rename) when the run opens and again,
// with final unit totals, when it closes, so the directory always holds
// either a complete manifest or none.
type Manifest struct {
	Version    int    `json:"version"`
	Tool       string `json:"tool"`
	ConfigHash string `json:"config_hash"`
	Seed       uint64 `json:"seed"`
	// Unit totals, refreshed on Close (a crash leaves them stale; the
	// checkpoint itself is the source of truth for what completed).
	UnitsDone        int `json:"units_done"`
	UnitsQuarantined int `json:"units_quarantined"`
}

// record is one checkpoint JSONL line: either a completed unit with its
// serialized result, or a quarantined unit with its panic and stack.
type record struct {
	Unit       string          `json:"unit"`
	Data       json.RawMessage `json:"data,omitempty"`
	Quarantine bool            `json:"quarantine,omitempty"`
	Panic      string          `json:"panic,omitempty"`
	Stack      string          `json:"stack,omitempty"`
}

// Quarantine describes one work unit that panicked and was isolated.
type Quarantine struct {
	Unit  string
	Panic string
	Stack string
}

// DriftError is returned when -resume finds a checkpoint written under a
// different configuration: merging incompatible partial results would be
// silently wrong, so the resume is refused.
type DriftError struct {
	Field      string
	Have, Want string
}

func (e *DriftError) Error() string {
	return fmt.Sprintf(
		"runctl: checkpoint was written with %s=%s but this invocation has %s=%s; refusing to merge incompatible partial results (rerun with the original flags, or start over in a fresh -run-dir)",
		e.Field, e.Have, e.Field, e.Want)
}

// PanicError is the error Protect returns for a recovered work-unit panic.
type PanicError struct {
	Unit  string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("work unit %q panicked: %v", e.Unit, e.Value)
}

// QuarantineError reports, at the end of an otherwise-completed run, every
// unit that panicked and was quarantined.
type QuarantineError struct {
	Units []Quarantine
}

func (e *QuarantineError) Error() string {
	names := make([]string, len(e.Units))
	for i, q := range e.Units {
		names[i] = fmt.Sprintf("%q (%s)", q.Unit, q.Panic)
	}
	return fmt.Sprintf("%d work unit(s) quarantined after panicking: %s",
		len(e.Units), strings.Join(names, ", "))
}

// Hooks are test and instrumentation points on the unit lifecycle.
// BeforeUnit runs inside Protect's recovery scope, so a hook that panics
// exercises the real quarantine path (fault injection); AfterUnit runs
// after a unit's checkpoint record is durable (tests inject cancellation
// here to kill runs after a chosen prefix of units).
type Hooks struct {
	BeforeUnit func(unit string)
	AfterUnit  func(unit string)
}

// Run is the controller threaded through one long-running invocation. All
// methods are safe for concurrent use by worker goroutines, and all are
// no-ops on a nil receiver.
type Run struct {
	// Hooks may be set before the run starts (not concurrently with it).
	Hooks Hooks
	// Tracer, when non-nil, receives a failure-ring record per quarantined
	// unit (obs.Tracer methods are nil-safe).
	Tracer *obs.Tracer

	ctx context.Context
	dir string
	fs  chaos.FS

	mu         sync.Mutex
	file       chaos.File // checkpoint.jsonl, append mode; nil = no checkpointing
	manifest   Manifest
	done       map[string]json.RawMessage
	loaded     int // units restored from an existing checkpoint
	quarantine []Quarantine
	closed     bool

	completed, skipped, quarantined *obs.Counter
	flushLat                        *obs.Histogram
}

// New returns a cancellation-only controller: Err reflects ctx, Protect
// isolates panics, but nothing is checkpointed (Lookup always misses).
func New(ctx context.Context) *Run {
	r := &Run{ctx: ctx, done: map[string]json.RawMessage{}}
	r.initMetrics(obs.Default)
	return r
}

// Open creates (or, with resume, reopens) the run directory dir and its
// checkpoint. A fresh open refuses a directory that already holds a
// checkpoint; a resume refuses a manifest whose tool, config hash or seed
// differ from m (see DriftError) and otherwise loads every completed unit
// so Lookup can skip them.
func Open(ctx context.Context, dir string, m Manifest, resume bool) (*Run, error) {
	return OpenFS(ctx, chaos.OS{}, dir, m, resume)
}

// OpenFS is Open over an explicit filesystem. Production callers pass
// chaos.OS{} (what Open does); fault-injection tests and the -chaos-*
// CLI knobs pass a *chaos.Injector to glitch every durability syscall
// the controller performs.
func OpenFS(ctx context.Context, fsys chaos.FS, dir string, m Manifest, resume bool) (*Run, error) {
	if dir == "" {
		return nil, errors.New("runctl: empty run directory")
	}
	if err := fsys.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("runctl: run dir: %w", err)
	}
	m.Version = manifestVersion
	r := &Run{
		ctx:      ctx,
		dir:      dir,
		fs:       fsys,
		manifest: m,
		done:     map[string]json.RawMessage{},
	}
	r.initMetrics(obs.Default)
	mpath := filepath.Join(dir, ManifestName)
	cpath := filepath.Join(dir, CheckpointName)
	if resume {
		data, err := fsys.ReadFile(mpath)
		if err != nil {
			return nil, fmt.Errorf("runctl: nothing to resume in %s: %w", dir, err)
		}
		var prev Manifest
		if err := json.Unmarshal(data, &prev); err != nil {
			return nil, fmt.Errorf("runctl: corrupt manifest in %s: %w", dir, err)
		}
		if err := checkDrift(prev, m); err != nil {
			return nil, err
		}
		if err := r.loadCheckpoint(cpath); err != nil {
			return nil, err
		}
	} else {
		for _, p := range []string{mpath, cpath} {
			if _, err := fsys.Stat(p); err == nil {
				return nil, fmt.Errorf(
					"runctl: %s already holds %s; pass -resume to continue that run or pick a fresh -run-dir",
					dir, filepath.Base(p))
			}
		}
		if err := r.writeManifestLocked(); err != nil {
			return nil, err
		}
	}
	f, err := fsys.OpenFile(cpath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return nil, fmt.Errorf("runctl: checkpoint: %w", err)
	}
	// Make the checkpoint file's directory entry durable up front: record
	// fsyncs alone would otherwise leave a file that vanishes wholesale on
	// power loss.
	if err := fsys.SyncDir(dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("runctl: checkpoint: %w", err)
	}
	r.file = f
	return r, nil
}

func checkDrift(prev, want Manifest) error {
	switch {
	case prev.Version != want.Version:
		return &DriftError{Field: "checkpoint version",
			Have: fmt.Sprint(prev.Version), Want: fmt.Sprint(want.Version)}
	case prev.Tool != want.Tool:
		return &DriftError{Field: "tool", Have: prev.Tool, Want: want.Tool}
	case prev.Seed != want.Seed:
		return &DriftError{Field: "seed",
			Have: fmt.Sprint(prev.Seed), Want: fmt.Sprint(want.Seed)}
	case prev.ConfigHash != want.ConfigHash:
		return &DriftError{Field: "config", Have: prev.ConfigHash, Want: want.ConfigHash}
	}
	return nil
}

// loadCheckpoint restores completed units from an existing checkpoint. A
// torn final line — the signature of a crash mid-append — is dropped (that
// unit simply reruns); corruption anywhere else is an error. Quarantine
// records are not treated as completed: a resumed run retries them.
func (r *Run) loadCheckpoint(path string) error {
	data, err := r.fs.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("runctl: checkpoint: %w", err)
	}
	lines := bytes.Split(data, []byte("\n"))
	for i, line := range lines {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			for _, rest := range lines[i+1:] {
				if len(bytes.TrimSpace(rest)) != 0 {
					return fmt.Errorf("runctl: corrupt checkpoint record %d in %s: %w",
						i+1, path, err)
				}
			}
			break // torn tail write from a crash; the unit reruns
		}
		if rec.Quarantine {
			continue
		}
		r.done[rec.Unit] = rec.Data
	}
	r.loaded = len(r.done)
	return nil
}

func (r *Run) initMetrics(reg *obs.Registry) {
	r.completed = reg.Counter(MetricUnitsCompleted)
	r.skipped = reg.Counter(MetricUnitsSkipped)
	r.quarantined = reg.Counter(MetricUnitsQuarantined)
	// 16us .. ~131ms upper bounds: an append+fsync lands mid-range on
	// ordinary disks and in the first buckets on fast ones.
	r.flushLat = reg.Histogram(MetricFlushLatency, obs.ExpBuckets(16, 2, 14))
}

// Context returns the run's context (context.Background for a nil Run).
func (r *Run) Context() context.Context {
	if r == nil || r.ctx == nil {
		return context.Background()
	}
	return r.ctx
}

// Dir returns the run directory ("" when not checkpointing).
func (r *Run) Dir() string {
	if r == nil {
		return ""
	}
	return r.dir
}

// Err returns nil while the run may continue, or an error wrapping
// ErrInterrupted once the context is canceled or past its deadline.
// Engines call this between work units and drain when it is non-nil.
func (r *Run) Err() error {
	if r == nil || r.ctx == nil {
		return nil
	}
	if err := r.ctx.Err(); err != nil {
		return fmt.Errorf("%w (%v)", ErrInterrupted, err)
	}
	return nil
}

// Loaded returns how many completed units the checkpoint held when the run
// was opened (0 for fresh runs).
func (r *Run) Loaded() int {
	if r == nil {
		return 0
	}
	return r.loaded
}

// Lookup reports whether unit already completed in a previous run and, if
// so, unmarshals its checkpointed result into out (out may be nil to only
// test membership). Undecodable records are treated as not done, so the
// unit reruns rather than poisoning the merge.
func (r *Run) Lookup(unit string, out any) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	data, ok := r.done[unit]
	r.mu.Unlock()
	if !ok {
		return false
	}
	if out != nil && json.Unmarshal(data, out) != nil {
		return false
	}
	r.skipped.Inc()
	return true
}

// Complete records unit's result as durably done: the checkpoint record is
// appended and fsynced before Complete returns, so a crash at any later
// instant cannot lose the unit. result must JSON-round-trip exactly (the
// engines' count structs do), which is what makes a resumed merge
// byte-identical to an uninterrupted run. A run without a directory
// stores nothing; it only counts the unit and calls Hooks.AfterUnit.
func (r *Run) Complete(unit string, result any) error {
	if r == nil {
		return nil
	}
	if r.dir != "" {
		rec := record{Unit: unit}
		if result != nil {
			data, err := json.Marshal(result)
			if err != nil {
				return fmt.Errorf("runctl: checkpoint %q: %w", unit, err)
			}
			rec.Data = data
		}
		r.mu.Lock()
		r.done[unit] = rec.Data
		err := r.appendLocked(rec)
		r.mu.Unlock()
		if err != nil {
			return err
		}
	}
	r.completed.Inc()
	if r.Hooks.AfterUnit != nil {
		r.Hooks.AfterUnit(unit)
	}
	return nil
}

// appendLocked writes one checkpoint record with fsync durability.
func (r *Run) appendLocked(rec record) error {
	if r.file == nil || r.closed {
		return nil
	}
	start := time.Now()
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("runctl: checkpoint %q: %w", rec.Unit, err)
	}
	if _, err := r.file.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("runctl: checkpoint append: %w", err)
	}
	if err := r.file.Sync(); err != nil {
		return fmt.Errorf("runctl: checkpoint fsync: %w", err)
	}
	r.flushLat.Observe(float64(time.Since(start).Microseconds()))
	return nil
}

// Protect runs one work unit with panic isolation: a panic inside fn is
// recovered, recorded as a quarantined unit in the checkpoint and the obs
// failure ring, and returned as a *PanicError — the engine skips the unit
// and keeps going. On a nil Run fn runs unprotected, preserving crash-loud
// behavior for bare library use.
func (r *Run) Protect(unit string, fn func() error) (err error) {
	if r == nil {
		return fn()
	}
	defer func() {
		if v := recover(); v != nil {
			pe := &PanicError{Unit: unit, Value: v, Stack: debug.Stack()}
			r.recordQuarantine(pe)
			err = pe
		}
	}()
	if r.Hooks.BeforeUnit != nil {
		r.Hooks.BeforeUnit(unit)
	}
	return fn()
}

func (r *Run) recordQuarantine(pe *PanicError) {
	q := Quarantine{Unit: pe.Unit, Panic: fmt.Sprint(pe.Value), Stack: string(pe.Stack)}
	r.mu.Lock()
	r.quarantine = append(r.quarantine, q)
	_ = r.appendLocked(record{
		Unit: q.Unit, Quarantine: true, Panic: q.Panic, Stack: q.Stack,
	})
	r.mu.Unlock()
	r.quarantined.Inc()
	r.Tracer.Failure("runctl.quarantine", map[string]any{
		"unit": q.Unit, "panic": q.Panic,
	})
}

// Quarantined returns the units isolated by Protect so far, in order.
func (r *Run) Quarantined() []Quarantine {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Quarantine(nil), r.quarantine...)
}

// FinishErr returns nil for a clean run, or a *QuarantineError naming
// every quarantined unit. Engines call it after draining all units so one
// poisoned unit surfaces at the end instead of crashing the run mid-flight.
func (r *Run) FinishErr() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.quarantine) == 0 {
		return nil
	}
	return &QuarantineError{Units: append([]Quarantine(nil), r.quarantine...)}
}

// Close seals the run: the manifest is rewritten atomically with the final
// unit totals and the checkpoint file is closed. Safe to call more than
// once and on a nil Run.
func (r *Run) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	if r.file == nil {
		return nil
	}
	r.manifest.UnitsDone = len(r.done)
	r.manifest.UnitsQuarantined = len(r.quarantine)
	err := r.writeManifestLocked()
	if cerr := r.file.Close(); err == nil {
		err = cerr
	}
	r.file = nil
	return err
}

func (r *Run) writeManifestLocked() error {
	data, err := json.MarshalIndent(r.manifest, "", "  ")
	if err != nil {
		return fmt.Errorf("runctl: manifest: %w", err)
	}
	path := filepath.Join(r.dir, ManifestName)
	fsys := r.fs
	if fsys == nil {
		fsys = chaos.OS{}
	}
	if err := WriteFileAtomicFS(fsys, path, append(data, '\n'), 0o666); err != nil {
		return fmt.Errorf("runctl: manifest: %w", err)
	}
	return nil
}

// ConfigHash derives the manifest's config fingerprint from any
// JSON-marshalable description of the result-affecting configuration
// (exclude execution knobs like worker counts: they do not change
// results, so they must not block a resume).
func ConfigHash(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(fmt.Sprintf("%+v", v))
	}
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:8])
}
