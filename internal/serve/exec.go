// Package serve is glitchlab's serving layer: it turns the three batch
// experiment CLIs (glitchemu, glitchscan, glitcheval) into one
// multi-tenant backend. Spec names an experiment configuration, Exec runs
// it flag-free through the same engines and renderers the CLIs use (so
// daemon results are byte-identical to direct CLI runs by construction),
// and Daemon queues, executes, checkpoints, streams and caches jobs over
// HTTP.
package serve

import (
	"fmt"
	"io"

	"glitchlab/internal/analyze"
	"glitchlab/internal/campaign"
	"glitchlab/internal/core"
	"glitchlab/internal/glitcher"
	"glitchlab/internal/mutate"
	"glitchlab/internal/obs"
	"glitchlab/internal/obs/profile"
	"glitchlab/internal/passes"
	"glitchlab/internal/report"
	"glitchlab/internal/runctl"
)

// Env is the execution environment for one job: everything that shapes
// how a spec runs but never what its results say. The CLIs build one from
// their flags; the daemon builds one per job with its worker budget and
// per-job tracer.
type Env struct {
	// Workers shards the engines across goroutines (<= 1 runs one worker;
	// results are identical at any count).
	Workers int
	// FullRun disables trigger-point snapshot replay (slower,
	// byte-identical results).
	FullRun bool
	// Reg, when non-nil, receives engine metrics and enables the campaign
	// and scan observers, exactly like the CLIs' -metrics/-trace/-serve.
	Reg *obs.Registry
	// Tracer, when non-nil, receives span/event records.
	Tracer *obs.Tracer
	// Progress, when non-nil, returns a per-campaign progress sink.
	Progress func(label string) func(done, total uint64)
	// Prof, when non-nil, samples phase attribution on the hot path.
	Prof *profile.Profile
	// EvalProgress, when non-nil, receives Table VI per-cell progress.
	EvalProgress func(sc, cfg string, a core.Attack, cell core.Table6Cell)
	// Run threads the run controller through the engines: cancellation,
	// checkpoint/resume and panic quarantine. May be nil.
	Run *runctl.Run
}

func (e Env) campaignObserver(label string) *campaign.Observer {
	if e.Reg == nil {
		return nil
	}
	o := campaign.NewObserver(e.Reg, e.Tracer)
	if e.Progress != nil {
		o.OnProgress(0, e.Progress(label))
	}
	return o
}

// Exec runs one normalized spec and renders its results to w with the
// exact bytes the equivalent CLI invocation writes to its -out file. It
// is the single engine entry point shared by the CLIs and the daemon.
func Exec(spec Spec, env Env, w io.Writer) error {
	switch spec.Kind {
	case KindCampaign:
		return execCampaign(spec, env, w)
	case KindScan:
		return execScan(spec, env, w)
	case KindEval:
		return execEval(spec, env, w)
	default:
		return fmt.Errorf("serve: unknown job kind %q", spec.Kind)
	}
}

func execCampaign(spec Spec, env Env, w io.Writer) error {
	variants, err := core.Figure2Variants(spec.Model, spec.ZeroInvalid)
	if err != nil {
		return err
	}
	for _, v := range variants {
		o := env.campaignObserver("campaign " + v.Model.String())
		var results []campaign.CondResult
		var err error
		if spec.PadUDF {
			results, err = core.RunUDFHardening(v.Model, spec.MaxFlips, env.Workers,
				env.FullRun, o, env.Prof, env.Run)
		} else {
			results, err = core.RunFigure2(v.Model, v.ZeroInvalid, spec.MaxFlips,
				env.Workers, env.FullRun, o, env.Prof, env.Run)
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(w, report.Figure2(results, v.Model, v.ZeroInvalid))
	}
	return nil
}

func execScan(spec Spec, env Env, w io.Writer) error {
	m := glitcher.NewModel(spec.Seed)
	m.FullRun = env.FullRun
	if env.Reg != nil {
		m.Obs = glitcher.NewObs(env.Reg, env.Tracer)
	}
	m.Prof = env.Prof
	workers, rn := env.Workers, env.Run
	wantT1 := map[string]int{"table1a": 0, "table1b": 1, "table1c": 2}
	switch spec.Exp {
	case "table1a", "table1b", "table1c":
		results, err := core.RunTable1(m, workers, rn)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, report.Table1(results[wantT1[spec.Exp]]))
		return nil
	case "table1":
		return printTable1(m, workers, rn, w)
	case "table2":
		return printTable2(m, workers, rn, w)
	case "table3":
		return printTable3(m, workers, rn, w)
	case "search":
		return printSearch(m, rn, w)
	case "all":
		if err := printTable1(m, workers, rn, w); err != nil {
			return err
		}
		if err := printTable2(m, workers, rn, w); err != nil {
			return err
		}
		if err := printTable3(m, workers, rn, w); err != nil {
			return err
		}
		return printSearch(m, rn, w)
	default:
		return fmt.Errorf("unknown experiment %q", spec.Exp)
	}
}

func printTable1(m *glitcher.Model, workers int, rn *runctl.Run, w io.Writer) error {
	results, err := core.RunTable1(m, workers, rn)
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Fprintln(w, report.Table1(r))
	}
	return nil
}

func printTable2(m *glitcher.Model, workers int, rn *runctl.Run, w io.Writer) error {
	results, err := core.RunTable2(m, workers, rn)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, report.Table2(results))
	return nil
}

func printTable3(m *glitcher.Model, workers int, rn *runctl.Run, w io.Writer) error {
	results, err := core.RunTable3(m, workers, rn)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, report.Table3(results))
	return nil
}

func printSearch(m *glitcher.Model, rn *runctl.Run, w io.Writer) error {
	results, err := core.RunSearch(m, rn)
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Fprintln(w, report.Search(r))
	}
	return nil
}

func execEval(spec Spec, env Env, w io.Writer) error {
	runT4 := func() error {
		t4, err := core.RunTable4()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, report.Table4(t4))
		return nil
	}
	runT5 := func() error {
		t5, err := core.RunTable5()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, report.Table5(t5))
		return nil
	}
	runT6 := func() error {
		m := glitcher.NewModel(spec.Seed)
		if env.Reg != nil {
			m.Obs = glitcher.NewObs(env.Reg, env.Tracer)
		}
		t6, err := core.RunTable6(m, env.Workers, env.EvalProgress, env.Run)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, report.Table6(t6))
		return nil
	}
	runLint := func() error {
		_, audit, err := core.CompileAudited(core.EvalFirmware,
			passes.All(core.EvalSensitive...),
			analyze.Options{Sensitive: core.EvalSensitive})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Static triage of the evaluation firmware (unprotected):")
		fmt.Fprintln(w, report.Findings(audit.Pre))
		fmt.Fprintln(w, "After the full defense set:")
		fmt.Fprintln(w, report.Findings(audit.Post))
		return audit.Err()
	}
	runFig2 := func() error {
		model, err := mutate.ParseModel(spec.Model)
		if err != nil {
			return err
		}
		o := env.campaignObserver("figure2 " + model.String())
		results, err := core.RunFigure2(model, spec.ZeroInvalid, spec.MaxFlips,
			env.Workers, env.FullRun, o, nil, env.Run)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, report.Figure2(results, model, spec.ZeroInvalid))
		return nil
	}

	switch spec.Exp {
	case "table4":
		return runT4()
	case "table5":
		return runT5()
	case "table6":
		return runT6()
	case "table7":
		fmt.Fprintln(w, report.Table7())
		return nil
	case "lint":
		return runLint()
	case "figure2":
		return runFig2()
	case "all":
		if err := runLint(); err != nil {
			return err
		}
		if err := runT4(); err != nil {
			return err
		}
		if err := runT5(); err != nil {
			return err
		}
		if err := runT6(); err != nil {
			return err
		}
		fmt.Fprintln(w, report.Table7())
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", spec.Exp)
	}
}
