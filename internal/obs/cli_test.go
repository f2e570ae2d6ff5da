package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestCPUProfileFlag pins -cpuprofile's contract: it attaches no observer
// (Enabled stays false, so engines keep their unobserved path), Close
// leaves a complete gzip-framed pprof file behind, and an uncreatable
// path fails Start.
func TestCPUProfileFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := RegisterCLIFlags(fs)
	if err := fs.Parse([]string{"-cpuprofile", path}); err != nil {
		t.Fatal(err)
	}
	if f.Enabled() {
		t.Fatal("-cpuprofile alone must not enable the observers")
	}
	sess, err := f.Start(NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if sess.Tracer != nil {
		t.Error("-cpuprofile alone opened a tracer")
	}
	sess.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
		t.Fatalf("profile is %d bytes without the gzip magic: % x", len(data), data[:min(len(data), 8)])
	}

	bad := &CLIFlags{CPUProfile: filepath.Join(t.TempDir(), "missing", "cpu.pprof")}
	if sess, err := bad.Start(NewRegistry()); err == nil {
		sess.Close()
		t.Fatal("Start accepted a profile path that cannot be created")
	}
}
