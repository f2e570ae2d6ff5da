// Command glitcheval runs the paper's Section VII defense evaluation:
// Table IV (boot-time overhead), Table V (size overhead), Table VI
// (defense efficacy under single, long and windowed glitch attacks), and
// prints the Table VII defense comparison.
//
// It also renders the glitchlint findings table for the evaluation
// firmware (-exp lint): the static triage of the same build Tables IV-VI
// measure dynamically. -exp figure2 reruns a Section IV emulation
// campaign from here so its outcome counters and the rendered figure can
// be cross-checked in one process.
//
// Usage:
//
//	glitcheval                  # everything (~6 s on 2 CPUs; Table VI dominates)
//	glitcheval -exp table4
//	glitcheval -exp table6 -seed 7
//	glitcheval -exp lint
//	glitcheval -exp figure2 -metrics -trace run.jsonl
//	glitcheval -exp table6 -cpuprofile t6.pprof  # Go CPU profile (go tool pprof -top)
//	glitcheval -exp table6 -out results.txt      # atomic results file
//	glitcheval -exp table6 -run-dir d -deadline 30m
//	glitcheval -exp table6 -run-dir d -resume
//
// A run with -run-dir checkpoints completed work units (Table VI
// scenario/defense/attack cells, figure2 campaign units); SIGINT, SIGTERM
// or -deadline drain the run, flush the checkpoint and exit with status
// 3, and -resume skips the completed units and produces byte-identical
// results to an uninterrupted run.
//
// The evaluation executes through internal/serve's flag-free Exec — the
// same entry point the glitchd daemon uses — so a daemon-served eval
// result is byte-identical to this CLI's -out file by construction.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"glitchlab/internal/campaign"
	"glitchlab/internal/core"
	"glitchlab/internal/obs"
	"glitchlab/internal/report"
	"glitchlab/internal/runctl"
	"glitchlab/internal/serve"
)

func main() {
	err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "glitcheval:", err)
	}
	os.Exit(runctl.ExitCode(err))
}

func run() error {
	exp := flag.String("exp", "all",
		"experiment: table4, table5, table6, table7, lint, figure2, all")
	seed := flag.Uint64("seed", core.DefaultSeed, "fault-model seed (table6)")
	verbose := flag.Bool("v", false, "print table6 progress per cell")
	modelFlag := flag.String("model", "and", "figure2 mutation model: and, or, xor")
	zeroInvalid := flag.Bool("zero-invalid", false,
		"figure2: treat the all-zero encoding as invalid (Figure 2c)")
	maxFlips := flag.Int("max-flips", 16,
		"figure2: maximum number of flipped bits per mask")
	workers := flag.Int("workers", campaign.DefaultWorkers(),
		"worker goroutines: table6 shards its cells, figure2 its campaign (1 = serial)")
	fullRun := flag.Bool("full-run", false,
		"figure2: re-simulate the prologue per execution instead of trigger-point replay")
	cli := obs.RegisterCLIFlags(flag.CommandLine)
	rcli := runctl.RegisterCLIFlags(flag.CommandLine)
	flag.Parse()

	sess, err := cli.Start(obs.Default)
	if err != nil {
		return err
	}
	defer sess.Close()

	spec, err := serve.Spec{
		Kind:        serve.KindEval,
		Exp:         *exp,
		Seed:        *seed,
		Model:       *modelFlag,
		ZeroInvalid: *zeroInvalid,
		MaxFlips:    *maxFlips,
	}.Normalize()
	if err != nil {
		return err
	}

	// Worker count and -full-run excluded from the config hash: they shape
	// only the schedule and the execution engine, never the counts.
	rn, cancel, err := rcli.Start("glitcheval", spec.ConfigHash(), spec.Seed)
	if err != nil {
		return err
	}
	defer cancel()
	defer rn.Close()
	rn.Tracer = sess.Tracer

	env := serve.Env{
		Workers:  *workers,
		FullRun:  *fullRun,
		Tracer:   sess.Tracer,
		Progress: sess.Progress,
		Run:      rn,
	}
	if cli.Enabled() {
		env.Reg = obs.Default
	}
	if *verbose {
		env.EvalProgress = func(sc, cfg string, a core.Attack, cell core.Table6Cell) {
			fmt.Fprintf(os.Stderr, "  %s / %s / %s: %d successes, %d detections\n",
				sc, cfg, a, cell.Successes, cell.Detections)
		}
	}

	defer sess.DumpMetrics(os.Stdout, report.Metrics)
	out := rcli.NewOutput()
	if err := serve.Exec(spec, env, out.Writer()); err != nil {
		if errors.Is(err, runctl.ErrInterrupted) {
			fmt.Fprintln(os.Stderr, rcli.ResumeHint("glitcheval"))
		}
		return err
	}
	return out.Commit()
}
