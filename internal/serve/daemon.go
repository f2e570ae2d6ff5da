package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"glitchlab/internal/chaos"
	"glitchlab/internal/obs"
	"glitchlab/internal/runctl"
)

// ErrQueueFull is returned by Submit when the bounded admission queue is
// at capacity; the HTTP layer maps it to 429 Too Many Requests.
var ErrQueueFull = errors.New("serve: job queue is full")

// ErrDraining is returned by Submit after BeginDrain: the daemon is
// shutting down and admits nothing new. The HTTP layer maps it to 503 +
// Retry-After so a well-behaved client waits for the restarted daemon.
var ErrDraining = errors.New("serve: daemon is draining")

// ErrDegraded is returned by Submit while the daemon is in degraded mode:
// persistent disk faults have made new work pointless, so fresh jobs are
// rejected with 503 + Retry-After while cached results keep being served.
// The daemon probes the state dir and recovers on the first success.
var ErrDegraded = errors.New("serve: daemon is degraded (persistent disk faults)")

// Config shapes a Daemon. Zero values select the documented defaults.
type Config struct {
	// StateDir is the daemon's durable root: every job lives in
	// StateDir/jobs/<id> with its spec, runctl checkpoint directory,
	// event stream and result. Required.
	StateDir string
	// QueueCap bounds admission: at most this many client-submitted jobs
	// may be queued or running at once; excess submissions are rejected
	// with ErrQueueFull (HTTP 429). Default 8. Jobs re-enqueued by
	// restart recovery bypass the cap — they were admitted once already.
	QueueCap int
	// Executors is the number of jobs executed concurrently. Default 2.
	Executors int
	// JobWorkers is the per-job worker budget handed to the engines.
	// Default GOMAXPROCS/Executors, at least 1 — on the 2-vCPU reference
	// host two executors each run their job serially instead of two jobs
	// fighting over two cores with four shards each.
	JobWorkers int
	// CacheBytes bounds the completed-result cache (LRU eviction).
	// Default 64 MiB; <= 0 disables caching.
	CacheBytes int64
	// Reg receives daemon and engine metrics. Default obs.Default (which
	// is also where runctl reports checkpoint metrics).
	Reg *obs.Registry
	// StampOverride replaces the schema/engine cache stamp (tests use it
	// to prove stale cached results are busted). Default Stamp().
	StampOverride string
	// UnitHook, when non-nil, runs after every durably checkpointed work
	// unit of every job (tests inject crashes here, reusing the runctl
	// kill-after-prefix pattern).
	UnitHook func(jobID, unit string)
	// FS is the filesystem all durable state goes through. Default
	// chaos.OS{} (the real one); chaos tests pass a *chaos.Injector.
	FS chaos.FS
	// DegradeAfter is how many consecutive disk-fault persistence failures
	// flip the daemon to degraded mode. Default 3; < 0 disables degraded
	// mode entirely.
	DegradeAfter int
	// ProbeInterval rate-limits the degraded daemon's recovery probes (a
	// small atomic write to the state dir on Submit). Default 250ms.
	ProbeInterval time.Duration
}

// SubmitResult is the outcome of one submission.
type SubmitResult struct {
	Job *Job
	// CacheHit: the result was served from the completed-result cache;
	// the job was born done without executing.
	CacheHit bool
	// Coalesced: an identical submission was already queued or running;
	// Job is that existing job and no new execution was admitted.
	Coalesced bool
}

// Daemon is the campaign-as-a-service engine host: a bounded job queue in
// front of executor goroutines running Exec under runctl checkpoints,
// with durable per-job state, a stamped LRU result cache and restart
// recovery of every in-flight job.
type Daemon struct {
	cfg   Config
	stamp string
	reg   *obs.Registry
	cache *Cache
	fs    chaos.FS

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	draining atomic.Bool
	degraded atomic.Bool

	mu          sync.Mutex
	cond        *sync.Cond
	queue       []*Job
	jobs        map[string]*Job
	order       []*Job          // submission order
	activeByKey map[string]*Job // queued or running, by cache key
	nextSeq     int
	queued      int
	running     int

	// faultMu guards the degraded-mode tracker separately from d.mu:
	// notePersist runs inside persist calls that may themselves hold d.mu
	// (newJobLocked).
	faultMu     sync.Mutex
	faultStreak int       // consecutive disk-fault persistence failures
	lastProbe   time.Time // last degraded-mode recovery probe

	submitted, completed, failed, rejected, coalesced, resumed *obs.Counter
	diskFaults, rejectedBusy                                   *obs.Counter
	queueDepth, runningG, degradedG                            *obs.Gauge
}

type jobMeta struct {
	ID    string `json:"id"`
	Seq   int    `json:"seq"`
	Spec  Spec   `json:"spec"`
	Key   string `json:"key"`
	Stamp string `json:"stamp"`
}

// Open starts a daemon over cfg.StateDir, recovering every job a previous
// process left behind: completed jobs repopulate the result cache (when
// their stamp still matches), failed jobs keep their recorded error, and
// queued or interrupted jobs are re-enqueued to resume from their runctl
// checkpoints.
func Open(cfg Config) (*Daemon, error) {
	if cfg.StateDir == "" {
		return nil, errors.New("serve: Config.StateDir is required")
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 8
	}
	if cfg.Executors <= 0 {
		cfg.Executors = 2
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = max(1, runtime.GOMAXPROCS(0)/cfg.Executors)
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.Reg == nil {
		cfg.Reg = obs.Default
	}
	if cfg.FS == nil {
		cfg.FS = chaos.OS{}
	}
	if cfg.DegradeAfter == 0 {
		cfg.DegradeAfter = 3
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 250 * time.Millisecond
	}
	stamp := cfg.StampOverride
	if stamp == "" {
		stamp = Stamp()
	}
	if err := cfg.FS.MkdirAll(filepath.Join(cfg.StateDir, "jobs"), 0o777); err != nil {
		return nil, fmt.Errorf("serve: state dir: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &Daemon{
		cfg:          cfg,
		stamp:        stamp,
		reg:          cfg.Reg,
		cache:        NewCache(cfg.CacheBytes, cfg.Reg),
		fs:           cfg.FS,
		ctx:          ctx,
		cancel:       cancel,
		jobs:         map[string]*Job{},
		activeByKey:  map[string]*Job{},
		nextSeq:      1,
		submitted:    cfg.Reg.Counter(MetricJobsSubmitted),
		completed:    cfg.Reg.Counter(MetricJobsCompleted),
		failed:       cfg.Reg.Counter(MetricJobsFailed),
		rejected:     cfg.Reg.Counter(MetricJobsRejected),
		coalesced:    cfg.Reg.Counter(MetricJobsCoalesced),
		resumed:      cfg.Reg.Counter(MetricJobsResumed),
		diskFaults:   cfg.Reg.Counter(MetricDiskFaults),
		rejectedBusy: cfg.Reg.Counter(MetricJobsRejectedBusy),
		queueDepth:   cfg.Reg.Gauge(MetricQueueDepth),
		runningG:     cfg.Reg.Gauge(MetricJobsRunning),
		degradedG:    cfg.Reg.Gauge(MetricDegraded),
	}
	d.cond = sync.NewCond(&d.mu)
	if err := d.recover(); err != nil {
		cancel()
		return nil, err
	}
	for i := 0; i < cfg.Executors; i++ {
		d.wg.Add(1)
		go d.executor()
	}
	return d, nil
}

// Stamp returns the schema/engine stamp the daemon keys its cache with.
func (d *Daemon) Stamp() string { return d.stamp }

// Registry returns the daemon's metrics registry.
func (d *Daemon) Registry() *obs.Registry { return d.reg }

func (d *Daemon) jobDir(id string) string {
	return filepath.Join(d.cfg.StateDir, "jobs", id)
}
func (d *Daemon) metaPath(id string) string   { return filepath.Join(d.jobDir(id), "meta.json") }
func (d *Daemon) runDir(id string) string     { return filepath.Join(d.jobDir(id), "run") }
func (d *Daemon) resultPath(id string) string { return filepath.Join(d.jobDir(id), "result.txt") }
func (d *Daemon) errorPath(id string) string  { return filepath.Join(d.jobDir(id), "error.txt") }

// retryablePath marks a failed job whose error was a disk fault rather
// than a deterministic one: a client may resubmit the identical spec.
func (d *Daemon) retryablePath(id string) string {
	return filepath.Join(d.jobDir(id), "retryable")
}

// EventsPath returns the job's JSONL event-stream file.
func (d *Daemon) EventsPath(id string) string {
	return filepath.Join(d.jobDir(id), "events.jsonl")
}

// recover enumerates StateDir/jobs and rebuilds the in-memory store.
func (d *Daemon) recover() error {
	root := filepath.Join(d.cfg.StateDir, "jobs")
	entries, err := d.fs.ReadDir(root)
	if err != nil {
		return fmt.Errorf("serve: recover: %w", err)
	}
	var metas []jobMeta
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		data, err := d.fs.ReadFile(filepath.Join(root, e.Name(), "meta.json"))
		if errors.Is(err, os.ErrNotExist) {
			continue // job dir created but never persisted; abandon it
		}
		if err != nil {
			// A meta file that exists but cannot be read is a disk fault,
			// not an abandoned job: silently dropping it would forget a
			// recoverable job. Fail loudly and let the operator retry.
			return fmt.Errorf("serve: recover %s: %w", e.Name(), err)
		}
		var m jobMeta
		if err := json.Unmarshal(data, &m); err != nil || m.ID != e.Name() {
			fmt.Fprintf(os.Stderr, "serve: skipping corrupt job dir %s\n", e.Name())
			continue
		}
		metas = append(metas, m)
	}
	sort.Slice(metas, func(i, j int) bool { return metas[i].Seq < metas[j].Seq })
	for _, m := range metas {
		j := &Job{ID: m.ID, Seq: m.Seq, Spec: m.Spec, Key: m.Key, Stamp: m.Stamp}
		if m.Seq >= d.nextSeq {
			d.nextSeq = m.Seq + 1
		}
		d.jobs[j.ID] = j
		d.order = append(d.order, j)
		switch {
		case d.exists(d.resultPath(j.ID)):
			body, err := d.fs.ReadFile(d.resultPath(j.ID))
			if err == nil {
				j.resultSize = int64(len(body))
				if j.Stamp == d.stamp {
					d.cache.Put(j.Key, body)
				}
			}
			j.state = StateDone
		case d.exists(d.errorPath(j.ID)):
			msg, _ := d.fs.ReadFile(d.errorPath(j.ID))
			j.state = StateFailed
			j.err = strings.TrimSpace(string(msg))
			j.retryable = d.exists(d.retryablePath(j.ID))
		default:
			// Queued or in flight when the previous daemon died: its
			// checkpoint (if any) resumes, its event stream appends.
			j.state = StateQueued
			j.resumed = true
			d.queue = append(d.queue, j)
			d.queued++
			if j.Stamp == d.stamp {
				d.activeByKey[j.Key] = j
			}
			d.resumed.Inc()
		}
	}
	d.queueDepth.Set(float64(d.queued))
	return nil
}

func (d *Daemon) exists(path string) bool {
	_, err := d.fs.Stat(path)
	return err == nil
}

// BeginDrain rejects every subsequent submission with ErrDraining (503 +
// Retry-After over HTTP) while existing jobs keep executing and results
// keep being served. Call it on SIGTERM before Close so late clients get
// a back-off hint instead of a connection error.
func (d *Daemon) BeginDrain() {
	if d.draining.CompareAndSwap(false, true) {
		d.jobEventGlobal("daemon.draining")
	}
}

// Degraded reports whether persistent disk faults have flipped the
// daemon to degraded mode.
func (d *Daemon) Degraded() bool { return d.degraded.Load() }

// jobEventGlobal is a stderr note for daemon-level state changes (no job
// stream to attach them to).
func (d *Daemon) jobEventGlobal(what string) {
	fmt.Fprintf(os.Stderr, "serve: %s\n", what)
}

// notePersist feeds the degraded-mode fault tracker with the outcome of
// one durable-state write. Any success resets the streak and recovers;
// DegradeAfter consecutive disk faults trip degraded mode.
func (d *Daemon) notePersist(err error) {
	if err == nil {
		d.faultMu.Lock()
		d.faultStreak = 0
		d.faultMu.Unlock()
		if d.degraded.CompareAndSwap(true, false) {
			d.degradedG.Set(0)
			d.jobEventGlobal("daemon.recovered (disk writes succeeding again)")
		}
		return
	}
	if !chaos.IsDiskFault(err) {
		return
	}
	d.diskFaults.Inc()
	d.faultMu.Lock()
	d.faultStreak++
	trip := d.cfg.DegradeAfter > 0 && d.faultStreak >= d.cfg.DegradeAfter
	d.faultMu.Unlock()
	if trip && d.degraded.CompareAndSwap(false, true) {
		d.degradedG.Set(1)
		d.jobEventGlobal("daemon.degraded (persistent disk faults; rejecting new jobs)")
	}
}

// persist is WriteFileAtomic through the daemon's filesystem, feeding the
// degraded-mode tracker.
func (d *Daemon) persist(path string, data []byte) error {
	err := runctl.WriteFileAtomicFS(d.fs, path, data, 0o666)
	d.notePersist(err)
	return err
}

// probeDegraded attempts one rate-limited recovery probe: a small atomic
// write to the state dir. On success the notePersist inside recovers the
// daemon. Reports whether the daemon is (still) degraded afterwards.
func (d *Daemon) probeDegraded() bool {
	if !d.degraded.Load() {
		return false
	}
	d.faultMu.Lock()
	due := time.Since(d.lastProbe) >= d.cfg.ProbeInterval
	if due {
		d.lastProbe = time.Now()
	}
	d.faultMu.Unlock()
	if due {
		_ = d.persist(filepath.Join(d.cfg.StateDir, ".probe"), []byte("probe\n"))
	}
	return d.degraded.Load()
}

// Submit admits one job. The spec is normalized first; identical
// submissions (same normalized spec under the same stamp) are served from
// the result cache byte-identically, or coalesced onto the in-flight
// execution if one exists. Fresh work is admitted only while the bounded
// queue has room (ErrQueueFull otherwise), the daemon is not draining
// (ErrDraining) and not degraded by persistent disk faults (ErrDegraded —
// cache hits for already-completed specs are still served).
func (d *Daemon) Submit(spec Spec) (SubmitResult, error) {
	if d.draining.Load() {
		d.rejectedBusy.Inc()
		return SubmitResult{}, ErrDraining
	}
	n, err := spec.Normalize()
	if err != nil {
		return SubmitResult{}, err
	}
	key := n.CacheKey(d.stamp)

	d.mu.Lock()
	// A finished job may briefly linger in activeByKey (execute marks it
	// done before releasing it); never coalesce onto a terminal job — the
	// cache below already holds its result.
	if active, ok := d.activeByKey[key]; ok && !active.State().Terminal() {
		d.coalesced.Inc()
		d.mu.Unlock()
		return SubmitResult{Job: active, Coalesced: true}, nil
	}
	if body, ok := d.cache.Get(key); ok {
		j, err := d.newJobLocked(n, key)
		if err != nil && !chaos.IsDiskFault(err) {
			d.mu.Unlock()
			return SubmitResult{}, err
		}
		// On a disk fault the job stays in-memory only (it will not
		// survive a restart) — a degraded daemon keeps serving cached
		// results, which is the whole point of degraded mode.
		j.state = StateDone
		j.cacheHit = true
		j.resultSize = int64(len(body))
		d.submitted.Inc()
		d.completed.Inc()
		d.mu.Unlock()
		if err == nil {
			// Persist the served result so the job survives a restart like
			// any executed one. The body bytes are exactly the cached ones;
			// handleResult falls back to the cache if this write is lost.
			_ = d.persist(d.resultPath(j.ID), body)
		}
		d.jobEvent(j, "job.cache_hit", map[string]any{"key": j.Key, "bytes": len(body)})
		return SubmitResult{Job: j, CacheHit: true}, nil
	}
	if d.degraded.Load() {
		d.mu.Unlock()
		if d.probeDegraded() {
			d.rejectedBusy.Inc()
			return SubmitResult{}, ErrDegraded
		}
		d.mu.Lock() // probe write succeeded: recovered, admit as usual
	}
	if d.queued+d.running >= d.cfg.QueueCap {
		d.rejected.Inc()
		d.mu.Unlock()
		return SubmitResult{}, ErrQueueFull
	}
	j, err := d.newJobLocked(n, key)
	if err != nil {
		d.mu.Unlock()
		return SubmitResult{}, err
	}
	j.state = StateQueued
	d.activeByKey[key] = j
	d.queue = append(d.queue, j)
	d.queued++
	d.queueDepth.Set(float64(d.queued))
	d.submitted.Inc()
	d.cond.Signal()
	d.mu.Unlock()
	d.jobEvent(j, "job.queued", map[string]any{"kind": j.Spec.Kind, "key": j.Key})
	return SubmitResult{Job: j}, nil
}

// newJobLocked allocates the next job, persists its meta record and
// registers it. On a disk-fault persist failure the job is still
// registered in memory and returned alongside the error, so cache hits
// can be served through a broken disk; other errors return a nil job.
// Caller holds d.mu.
func (d *Daemon) newJobLocked(spec Spec, key string) (*Job, error) {
	seq := d.nextSeq
	d.nextSeq++
	j := &Job{
		ID:    fmt.Sprintf("j%06d", seq),
		Seq:   seq,
		Spec:  spec,
		Key:   key,
		Stamp: d.stamp,
	}
	meta, err := json.MarshalIndent(jobMeta{
		ID: j.ID, Seq: j.Seq, Spec: j.Spec, Key: j.Key, Stamp: j.Stamp,
	}, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := d.fs.MkdirAll(d.jobDir(j.ID), 0o777); err != nil {
		d.notePersist(err)
		if !chaos.IsDiskFault(err) {
			return nil, fmt.Errorf("serve: job dir: %w", err)
		}
		d.jobs[j.ID] = j
		d.order = append(d.order, j)
		return j, err
	}
	if err := d.persist(d.metaPath(j.ID), append(meta, '\n')); err != nil {
		if !chaos.IsDiskFault(err) {
			return nil, err
		}
		d.jobs[j.ID] = j
		d.order = append(d.order, j)
		return j, err
	}
	d.jobs[j.ID] = j
	d.order = append(d.order, j)
	return j, nil
}

// Job looks a job up by ID.
func (d *Daemon) Job(id string) (*Job, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	return j, ok
}

// Jobs returns every job in submission order.
func (d *Daemon) Jobs() []*Job {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]*Job(nil), d.order...)
}

// Result returns a completed job's rendered result bytes.
func (d *Daemon) Result(id string) ([]byte, error) {
	j, ok := d.Job(id)
	if !ok {
		return nil, fmt.Errorf("serve: unknown job %s", id)
	}
	if s := j.State(); s != StateDone {
		return nil, fmt.Errorf("serve: job %s is %s, not done", id, s)
	}
	body, err := d.fs.ReadFile(d.resultPath(id))
	if err != nil {
		// The result file may be unreadable (disk fault) or absent (cache
		// hit persisted best-effort while degraded); the stamped cache
		// holds the identical bytes.
		if cached, ok := d.cache.Get(j.Key); ok {
			return cached, nil
		}
		return nil, err
	}
	return body, nil
}

// WaitTerminal blocks until the job reaches done or failed, polling its
// state, or until timeout; it reports whether the job finished in time.
func (d *Daemon) WaitTerminal(id string, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		j, ok := d.Job(id)
		if !ok {
			return false
		}
		if j.State().Terminal() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// executor pulls queued jobs until the daemon context is canceled.
func (d *Daemon) executor() {
	defer d.wg.Done()
	for {
		d.mu.Lock()
		for len(d.queue) == 0 && d.ctx.Err() == nil {
			d.cond.Wait()
		}
		if d.ctx.Err() != nil {
			d.mu.Unlock()
			return
		}
		j := d.queue[0]
		d.queue = d.queue[1:]
		d.queued--
		d.running++
		d.queueDepth.Set(float64(d.queued))
		d.runningG.Set(float64(d.running))
		d.mu.Unlock()

		d.execute(j)

		d.mu.Lock()
		d.running--
		d.runningG.Set(float64(d.running))
		d.mu.Unlock()
	}
}

// execute runs one job under its runctl checkpoint and publishes the
// outcome (result file + cache, error file, or interrupted-for-resume).
func (d *Daemon) execute(j *Job) {
	j.setState(StateRunning)

	// A crash mid-append can leave a torn final event line; truncate to
	// the last record boundary before resuming the append so readers (and
	// their byte offsets) only ever see whole records.
	d.truncateTornEvents(j.ID)
	evFile, err := d.fs.OpenFile(d.EventsPath(j.ID),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		d.fail(j, nil, fmt.Errorf("event stream: %w", err))
		return
	}
	// The tracer samples per-execution records at obs.DefaultSampling;
	// the job.* events below are written whole.
	tracer := obs.NewTracer(evFile)
	closeEvents := func() {
		tracer.Close()
		_ = evFile.Close()
	}

	before := d.reg.Snapshot()
	j.mu.Lock()
	j.before, j.hasBefore = before, true
	j.mu.Unlock()

	resumed := runctl.HasCheckpointFS(d.fs, d.runDir(j.ID))
	tracer.Event("job.start", map[string]any{
		"id": j.ID, "kind": j.Spec.Kind, "resume": resumed,
	})
	rn, err := runctl.OpenFS(d.ctx, d.fs, d.runDir(j.ID), runctl.Manifest{
		Tool:       j.Spec.ToolName(),
		ConfigHash: j.Spec.ConfigHash(),
		Seed:       j.Spec.Seed,
	}, resumed)
	if err != nil {
		d.fail(j, closeEvents, err)
		return
	}
	rn.Tracer = tracer
	loaded := uint64(rn.Loaded())
	j.unitsLoaded.Store(loaded)
	j.unitsDone.Store(loaded)
	rn.Hooks.AfterUnit = func(unit string) {
		j.unitsDone.Add(1)
		tracer.Event("job.unit", map[string]any{"unit": unit})
		if d.cfg.UnitHook != nil {
			d.cfg.UnitHook(j.ID, unit)
		}
	}

	var buf bytes.Buffer
	execErr := Exec(j.Spec, Env{
		Workers: d.cfg.JobWorkers,
		Reg:     d.reg,
		Tracer:  tracer,
		Run:     rn,
	}, &buf)
	if cerr := rn.Close(); execErr == nil {
		execErr = cerr
	}

	after := d.reg.Snapshot()
	j.mu.Lock()
	j.after, j.hasAfter = after, true
	j.mu.Unlock()

	if errors.Is(execErr, runctl.ErrInterrupted) {
		// Daemon drain: the checkpoint holds every completed unit; a
		// restarted daemon re-enqueues this job and resumes it.
		tracer.Event("job.interrupted", map[string]any{
			"units_done": j.unitsDone.Load(),
		})
		closeEvents()
		j.setState(StateInterrupted)
		return
	}
	if execErr != nil {
		d.fail(j, closeEvents, execErr)
		return
	}

	body := buf.Bytes()
	if err := d.persist(d.resultPath(j.ID), body); err != nil {
		d.fail(j, closeEvents, err)
		return
	}
	if j.Stamp == d.stamp {
		d.cache.Put(j.Key, body)
	}
	// The event stream is complete before the job turns terminal, so a
	// reader that sees the state flip pages to a stable end.
	tracer.Event("job.done", map[string]any{
		"bytes": len(body), "units_done": j.unitsDone.Load(),
	})
	closeEvents()
	d.completed.Inc()
	j.mu.Lock()
	j.state = StateDone
	j.resultSize = int64(len(body))
	j.mu.Unlock()
	d.release(j)
}

// fail marks a job failed and records the error durably so a restarted
// daemon does not retry a deterministic failure. Disk-fault failures are
// marked retryable — the job's inputs are fine, the environment was not —
// so a client may safely resubmit the identical spec.
func (d *Daemon) fail(j *Job, closeEvents func(), err error) {
	msg := err.Error()
	retryable := chaos.IsDiskFault(err)
	_ = d.persist(d.errorPath(j.ID), []byte(msg+"\n"))
	if retryable {
		// Best-effort: if the disk is broken this write fails too, and a
		// restarted daemon re-enqueues the job anyway (no error file).
		_ = d.persist(d.retryablePath(j.ID), []byte("disk fault\n"))
	}
	d.jobEvent(j, "job.failed", map[string]any{"error": msg})
	if closeEvents != nil {
		closeEvents()
	}
	d.failed.Inc()
	j.mu.Lock()
	j.state = StateFailed
	j.err = msg
	j.retryable = retryable
	j.mu.Unlock()
	d.release(j)
}

// release drops the job's in-flight coalescing registration.
func (d *Daemon) release(j *Job) {
	d.mu.Lock()
	if d.activeByKey[j.Key] == j {
		delete(d.activeByKey, j.Key)
	}
	d.mu.Unlock()
}

// jobEvent appends one standalone lifecycle record to the job's event
// stream outside an execution window (submission, cache hits, failures
// before the tracer opened). Record shape matches the obs tracer's.
func (d *Daemon) jobEvent(j *Job, name string, attrs map[string]any) {
	f, err := d.fs.OpenFile(d.EventsPath(j.ID),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return
	}
	rec := map[string]any{
		"type": "event", "v": obs.TraceSchemaVersion, "name": name,
		"t_us": 0, "attrs": attrs,
	}
	if data, err := json.Marshal(rec); err == nil {
		_, _ = f.Write(append(data, '\n'))
	}
	_ = f.Close()
}

// truncateTornEvents drops a torn final line a crash mid-append left in
// the job's event stream, so resumed appends continue on a record
// boundary and byte offsets handed to clients always land between whole
// records.
func (d *Daemon) truncateTornEvents(id string) {
	path := d.EventsPath(id)
	data, err := d.fs.ReadFile(path)
	if err != nil || len(data) == 0 || data[len(data)-1] == '\n' {
		return
	}
	_ = d.fs.Truncate(path, int64(lastNewline(data)))
}

// Close drains the daemon: the context is canceled, executors finish at
// the next work-unit boundary (in-flight jobs checkpoint and are marked
// interrupted for the next process), and the call returns once every
// executor has exited. Safe to call more than once.
func (d *Daemon) Close() error {
	d.cancel()
	d.mu.Lock()
	d.cond.Broadcast()
	d.mu.Unlock()
	d.wg.Wait()
	return nil
}
