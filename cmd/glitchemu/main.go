// Command glitchemu runs the paper's Section IV emulation campaigns: it
// exhaustively perturbs every conditional-branch encoding of ARM Thumb with
// bit flips and reports the Figure 2 success rates and failure histograms.
//
// Usage:
//
//	glitchemu                      # all variants (Figure 2a, 2b, 2c, XOR)
//	glitchemu -model and           # one model
//	glitchemu -model and -zero-invalid
//	glitchemu -max-flips 4         # partial sweep (cheaper)
//	glitchemu -workers 1           # serial run (default: one worker per CPU)
//	glitchemu -metrics             # print a metrics snapshot afterwards
//	glitchemu -cpuprofile c.pprof  # Go CPU profile (go tool pprof -top)
//	glitchemu -trace c.jsonl       # structured JSONL trace of the campaign
//	glitchemu -serve :8080         # live /metrics and /debug/pprof
//	glitchemu -out results.txt     # write the tables atomically to a file
//	glitchemu -run-dir d -deadline 30m   # crash-safe checkpointed run
//	glitchemu -run-dir d -resume   # pick an interrupted run back up
//
// A run with -run-dir checkpoints every completed (condition, flip-count)
// work unit; SIGINT, SIGTERM or -deadline drain the workers, flush the
// checkpoint and exit with status 3, and -resume skips the completed units
// and produces byte-identical results to an uninterrupted run.
//
// The campaign itself executes through internal/serve's flag-free Exec —
// the same entry point the glitchd daemon uses — so a daemon-served
// campaign result is byte-identical to this CLI's -out file by
// construction.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"glitchlab/internal/campaign"
	"glitchlab/internal/obs"
	"glitchlab/internal/report"
	"glitchlab/internal/runctl"
	"glitchlab/internal/serve"
)

func main() {
	err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "glitchemu:", err)
	}
	os.Exit(runctl.ExitCode(err))
}

func run() error {
	modelFlag := flag.String("model", "", "mutation model: and, or, xor (default: all)")
	zeroInvalid := flag.Bool("zero-invalid", false,
		"treat the all-zero encoding as invalid (Figure 2c)")
	padUDF := flag.Bool("pad-udf", false,
		"fill unreachable slots with UDF (Section IV hardening hypothesis)")
	maxFlips := flag.Int("max-flips", 16, "maximum number of flipped bits per mask")
	workers := flag.Int("workers", campaign.DefaultWorkers(),
		"worker goroutines sharding the campaign (1 = serial; results are identical)")
	fullRun := flag.Bool("full-run", false,
		"re-simulate the harness prologue on every execution instead of replaying "+
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
		Kind:        serve.KindCampaign,
		Model:       *modelFlag,
		ZeroInvalid: *zeroInvalid,
		PadUDF:      *padUDF,
		MaxFlips:    *maxFlips,
	}.Normalize()
	if err != nil {
		return err
	}

	// The config hash covers everything that shapes the results; the worker
	// count and -full-run only shape the schedule and the execution engine,
	// never the counts, so they are deliberately excluded and a run may be
	// resumed with different values for either.
	rn, cancel, err := rcli.Start("glitchemu", spec.ConfigHash(), 0)
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
			fmt.Fprintln(os.Stderr, rcli.ResumeHint("glitchemu"))
		}
		return err
	}
	if err := out.Commit(); err != nil {
		return err
	}
	sess.DumpMetrics(os.Stdout, report.Metrics)
	return nil
}
