// Command glitchscan runs the paper's Section V "real-world" glitching
// experiments against the simulated STM32 target: Table I single-glitch
// scans, Table II multi-glitch, Table III long-glitch, and the Section V-B
// optimal-parameter search.
//
// Usage:
//
//	glitchscan                 # everything
//	glitchscan -exp table1a    # one experiment
//	glitchscan -seed 7         # a different fault-model landscape
//	glitchscan -workers 1      # serial scans (default: one worker per CPU)
//	glitchscan -metrics        # print a metrics snapshot afterwards
//	glitchscan -cpuprofile s.pprof       # Go CPU profile (go tool pprof -top)
//	glitchscan -trace s.jsonl  # structured JSONL trace of the scan
//	glitchscan -serve :8080    # live /metrics and /debug/pprof
//	glitchscan -out results.txt          # write the tables atomically
//	glitchscan -run-dir d -deadline 30m  # crash-safe checkpointed run
//	glitchscan -run-dir d -resume        # pick an interrupted run back up
//
// Experiments: table1a table1b table1c table1 table2 table3 search
//
// A run with -run-dir checkpoints every completed grid width row; SIGINT,
// SIGTERM or -deadline drain the scan, flush the checkpoint and exit with
// status 3, and -resume skips the completed rows and produces
// byte-identical results to an uninterrupted run.
//
// The scans execute through internal/serve's flag-free Exec — the same
// entry point the glitchd daemon uses — so a daemon-served scan result is
// byte-identical to this CLI's -out file by construction.
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
		fmt.Fprintln(os.Stderr, "glitchscan:", err)
	}
	os.Exit(runctl.ExitCode(err))
}

func run() error {
	exp := flag.String("exp", "all",
		"experiment: table1a, table1b, table1c, table1, table2, table3, search, all")
	seed := flag.Uint64("seed", core.DefaultSeed, "fault-model seed")
	workers := flag.Int("workers", campaign.DefaultWorkers(),
		"worker goroutines sharding each grid scan (1 = serial; results are identical)")
	fullRun := flag.Bool("full-run", false,
		"reset and re-run the boot prologue on every attempt instead of replaying "+
			"from the trigger-point snapshot (slower; results are byte-identical)")
	cli := obs.RegisterCLIFlags(flag.CommandLine)
	rcli := runctl.RegisterCLIFlags(flag.CommandLine)
	flag.Parse()

	sess, err := cli.Start(obs.Default)
	if err != nil {
		return err
	}
	defer sess.Close()

	spec, err := serve.Spec{
		Kind: serve.KindScan,
		Exp:  *exp,
		Seed: *seed,
	}.Normalize()
	if err != nil {
		return err
	}

	// Worker count and -full-run excluded from the config hash: they shape
	// only the schedule and the execution engine, never the counts.
	rn, cancel, err := rcli.Start("glitchscan", spec.ConfigHash(), spec.Seed)
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

	out := rcli.NewOutput()
	if err := serve.Exec(spec, env, out.Writer()); err != nil {
		if errors.Is(err, runctl.ErrInterrupted) {
			fmt.Fprintln(os.Stderr, rcli.ResumeHint("glitchscan"))
		}
		return err
	}
	if err := out.Commit(); err != nil {
		return err
	}
	if cli.Metrics {
		sess.DumpMetrics(os.Stdout, report.Metrics)
	}
	return nil
}
