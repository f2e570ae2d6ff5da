package obs

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime/pprof"
)

// CLIFlags is the shared observability flag set of the experiment CLIs
// (glitchemu, glitchscan, glitcheval): -metrics, -trace, -serve, the
// trace tuning knobs and -cpuprofile.
type CLIFlags struct {
	Metrics    bool
	TracePath  string
	ServeAddr  string
	Sample     int
	RingSize   int
	CPUProfile string
}

// RegisterCLIFlags registers the shared observability flags on fs.
func RegisterCLIFlags(fs *flag.FlagSet) *CLIFlags {
	f := &CLIFlags{}
	fs.BoolVar(&f.Metrics, "metrics", false,
		"print a metrics snapshot after the experiments")
	fs.StringVar(&f.TracePath, "trace", "",
		"write a JSONL execution trace to this file")
	fs.StringVar(&f.ServeAddr, "serve", "",
		"serve /metrics and /debug/pprof on this address while running")
	fs.IntVar(&f.Sample, "trace-sample", DefaultSampling,
		"keep one trace event record in every N executions")
	fs.IntVar(&f.RingSize, "trace-failures", DefaultFailureRing,
		"post-mortem ring: keep the last N failed executions in the trace")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "",
		"write a Go CPU profile of the run to this file (read it with go tool pprof)")
	return f
}

// Enabled reports whether any observer output was requested. -cpuprofile
// does not count: the CPU profiler samples the process from outside the
// engines, so a profiled run attaches no observer and executes exactly
// the unobserved path, memoization included.
func (f *CLIFlags) Enabled() bool {
	return f.Metrics || f.TracePath != "" || f.ServeAddr != ""
}

// Session is the running observability state of one CLI invocation.
type Session struct {
	Flags  *CLIFlags
	Reg    *Registry
	Tracer *Tracer // nil when no trace was requested

	traceFile *os.File
	srv       *http.Server
	profFile  *os.File
}

// Start opens the trace sink and the serve endpoint and starts the CPU
// profile per the flags, recording into reg (pass Default to share the
// compiler pipeline's metrics). Always returns a usable session; Close
// must be called.
func (f *CLIFlags) Start(reg *Registry) (*Session, error) {
	s := &Session{Flags: f, Reg: reg}
	if f.TracePath != "" {
		file, err := os.Create(f.TracePath)
		if err != nil {
			return nil, fmt.Errorf("obs: trace sink: %w", err)
		}
		s.traceFile = file
		s.Tracer = NewTracer(file)
		s.Tracer.SetSampling(f.Sample)
		s.Tracer.SetFailureRing(f.RingSize)
	}
	if f.ServeAddr != "" {
		reg.PublishExpvar("glitchlab")
		srv, addr, err := Serve(f.ServeAddr, reg)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("obs: serve: %w", err)
		}
		s.srv = srv
		fmt.Fprintf(os.Stderr, "obs: serving /metrics and /debug/pprof on http://%s\n", addr)
	}
	if f.CPUProfile != "" {
		file, err := os.Create(f.CPUProfile)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("obs: cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(file); err != nil {
			_ = file.Close()
			s.Close()
			return nil, fmt.Errorf("obs: cpu profile: %w", err)
		}
		s.profFile = file
	}
	return s, nil
}

// Progress returns a stderr progress printer for campaign ticks, or nil
// when no observability output was requested (keeping default runs quiet).
func (s *Session) Progress(label string) func(done, total uint64) {
	if !s.Flags.Enabled() {
		return nil
	}
	return func(done, total uint64) {
		if total == 0 {
			fmt.Fprintf(os.Stderr, "%s: %d executions\n", label, done)
			return
		}
		fmt.Fprintf(os.Stderr, "%s: %d/%d executions (%.1f%%)\n",
			label, done, total, 100*float64(done)/float64(total))
	}
}

// Close stops the CPU profile and closes its file, flushes the tracer
// (failure ring + summary), closes the trace file and shuts down the
// serve endpoint. A profile file that fails to close is reported on
// stderr: Close runs deferred, on every exit path of a CLI.
func (s *Session) Close() {
	if s.profFile != nil {
		pprof.StopCPUProfile()
		if err := s.profFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "obs: cpu profile:", err)
		}
		s.profFile = nil
	}
	s.Tracer.Close()
	if s.traceFile != nil {
		_ = s.traceFile.Close()
		s.traceFile = nil
	}
	if s.srv != nil {
		_ = s.srv.Close()
		s.srv = nil
	}
}

// DumpMetrics writes the registry snapshot to w when -metrics was given.
// The render func lets callers use the report package's table layout
// without obs importing it.
func (s *Session) DumpMetrics(w io.Writer, render func(Snapshot) string) {
	if !s.Flags.Metrics {
		return
	}
	if render == nil {
		render = func(snap Snapshot) string { return snap.Text() }
	}
	fmt.Fprintln(w, render(s.Reg.Snapshot()))
}
