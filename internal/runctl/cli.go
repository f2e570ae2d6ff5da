package runctl

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"
	"time"

	"glitchlab/internal/chaos"
)

// ExitChaosCrash is the process exit code a CLI uses when -chaos-crash-op
// fires: the injected power loss has rolled the run directory back to its
// durable image and the process dies, exactly like a real kill. Distinct
// from ExitInterrupted so the chaos harness can tell "crashed on schedule"
// from "user hit Ctrl-C".
const ExitChaosCrash = 4

// CLIFlags is the run-control flag block shared by the experiment CLIs
// (glitchemu, glitchscan, glitcheval). Register with RegisterCLIFlags,
// then call Start after flag.Parse.
type CLIFlags struct {
	Dir      string        // -run-dir: checkpoint directory ("" = no checkpointing)
	Resume   bool          // -resume: continue the checkpoint in -run-dir
	Deadline time.Duration // -deadline: cancel the run after this long
	OutPath  string        // -out: write results here atomically instead of stdout

	// Chaos knobs: deterministic fault injection on the run's durability
	// I/O (checkpoints, manifest, -out). All off by default.
	ChaosSeed    uint64 // -chaos-seed: schedule seed
	ChaosEvery   uint64 // -chaos-every: mean ops between injected faults (0 = off)
	ChaosCrashOp int64  // -chaos-crash-op: simulate power loss at this op index (-1 = off)

	fsys chaos.FS
}

// RegisterCLIFlags installs -run-dir, -resume, -deadline and -out on fs,
// plus the -chaos-* fault-injection knobs.
func RegisterCLIFlags(fs *flag.FlagSet) *CLIFlags {
	f := &CLIFlags{}
	fs.StringVar(&f.Dir, "run-dir", "",
		"checkpoint directory for crash-safe runs (created if missing)")
	fs.BoolVar(&f.Resume, "resume", false,
		"resume the checkpoint in -run-dir, skipping completed work units")
	fs.DurationVar(&f.Deadline, "deadline", 0,
		"cancel the run after this duration, flushing the checkpoint (e.g. 30m)")
	fs.StringVar(&f.OutPath, "out", "",
		"write results to this file atomically instead of stdout")
	fs.Uint64Var(&f.ChaosSeed, "chaos-seed", 0,
		"seed for the deterministic fault-injection schedule")
	fs.Uint64Var(&f.ChaosEvery, "chaos-every", 0,
		"inject a disk fault on average every N durability I/O ops (0 = off)")
	fs.Int64Var(&f.ChaosCrashOp, "chaos-crash-op", -1,
		"simulate power loss at this durability I/O op and exit 4 (-1 = off)")
	return f
}

// FS returns the filesystem the run's durability I/O goes through: the
// real one, or — when any -chaos-* knob is set — a deterministic fault
// injector over it. Built once; Start and NewOutput share it so the op
// index spans the whole invocation.
func (f *CLIFlags) FS() chaos.FS {
	if f.fsys != nil {
		return f.fsys
	}
	if f.ChaosEvery == 0 && f.ChaosCrashOp < 0 {
		f.fsys = chaos.OS{}
		return f.fsys
	}
	var sched chaos.Overlay
	if f.ChaosCrashOp >= 0 {
		sched = append(sched, chaos.FaultAt(uint64(f.ChaosCrashOp), chaos.FaultCrash))
	}
	if f.ChaosEvery > 0 {
		sched = append(sched, chaos.Seeded{Seed: f.ChaosSeed, Every: f.ChaosEvery})
	}
	inj := chaos.NewInjector(chaos.OS{}, sched).WithSeed(f.ChaosSeed | 1)
	inj.OnCrash(func() {
		fmt.Fprintln(os.Stderr, "chaos: simulated power loss at -chaos-crash-op; run directory rolled back to its durable image")
		// os.Exit skips the CLI's deferred obs.Session.Close, so finish a
		// -cpuprofile here: the simulated crash targets the run
		// directory, not the profile of the run it cut short.
		pprof.StopCPUProfile()
		os.Exit(ExitChaosCrash)
	})
	f.fsys = inj
	return f.fsys
}

// Start builds the *Run for one CLI invocation: a context that cancels on
// SIGINT/SIGTERM (and on -deadline, if set), plus checkpointing when
// -run-dir was given. The returned cancel must be deferred; the caller
// also defers run.Close(). After the first signal cancels the context the
// signal handler is released, so a second Ctrl-C kills the process the
// usual way if the drain itself wedges.
func (f *CLIFlags) Start(tool, configHash string, seed uint64) (*Run, context.CancelFunc, error) {
	if f.Resume && f.Dir == "" {
		return nil, nil, errors.New("-resume requires -run-dir")
	}
	ctx := context.Background()
	var cancels []context.CancelFunc
	if f.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.Deadline)
		cancels = append(cancels, cancel)
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	cancels = append(cancels, stop)
	go func() {
		<-ctx.Done()
		stop()
	}()
	cancel := func() {
		for i := len(cancels) - 1; i >= 0; i-- {
			cancels[i]()
		}
	}

	var (
		run *Run
		err error
	)
	if f.Dir == "" {
		run = New(ctx)
	} else {
		m := Manifest{Tool: tool, ConfigHash: configHash, Seed: seed}
		run, err = OpenFS(ctx, f.FS(), f.Dir, m, f.Resume)
		if err != nil {
			cancel()
			return nil, nil, err
		}
	}
	return run, cancel, nil
}

// ResumeHint renders the message an interrupted CLI prints so the user
// knows how to pick the run back up.
func (f *CLIFlags) ResumeHint(tool string) string {
	if f.Dir == "" {
		return fmt.Sprintf(
			"%s: interrupted; no -run-dir was set, so no checkpoint was kept (partial work is lost)",
			tool)
	}
	return fmt.Sprintf(
		"%s: interrupted; checkpoint flushed to %s — resume with:\n  %s -run-dir %s -resume <same flags>",
		tool, f.Dir, tool, f.Dir)
}

// ExitCode maps a CLI run's final error to its process exit code:
// 0 for success, ExitInterrupted for a canceled/deadlined run, 1 otherwise.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, ErrInterrupted):
		return ExitInterrupted
	default:
		return 1
	}
}

// Output buffers a CLI's results and commits them atomically. With no
// path the Writer is plain stdout; with a path (-out) the results
// accumulate in memory and Commit writes them in one atomic rename, so an
// interrupted run never leaves a truncated results file — callers only
// Commit on success.
type Output struct {
	path string
	fs   chaos.FS
	buf  bytes.Buffer
}

// NewOutput returns an Output targeting path ("" = stdout) on the real
// filesystem.
func NewOutput(path string) *Output {
	return &Output{path: path, fs: chaos.OS{}}
}

// NewOutput returns the Output for this invocation's -out flag, committing
// through the same (possibly fault-injected) filesystem as the run.
func (f *CLIFlags) NewOutput() *Output {
	return &Output{path: f.OutPath, fs: f.FS()}
}

// Writer returns the destination for result rendering.
func (o *Output) Writer() io.Writer {
	if o.path == "" {
		return os.Stdout
	}
	return &o.buf
}

// Commit atomically publishes the buffered results to the output path.
// A no-op when writing to stdout.
func (o *Output) Commit() error {
	if o.path == "" {
		return nil
	}
	return WriteFileAtomicFS(o.fs, o.path, o.buf.Bytes(), 0o666)
}
