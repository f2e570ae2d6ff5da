package bench

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"glitchlab/internal/obs"
	"glitchlab/internal/runctl"
)

// tracer is a traced run's instrumentation, all of it outside the
// program: an obs.Tracer (schema v2, readable by glitchtrace) receiving
// one span per runctl work unit and per timed call, and a CPU profile.
// Every method is a no-op on a nil tracer, so untraced runs call them
// unconditionally.
type tracer struct {
	t    *obs.Tracer
	file *os.File
	buf  *bufio.Writer

	mu    sync.Mutex
	open  map[string]openUnit
	units []unitSpan

	prof      bytes.Buffer
	profiling bool
}

type openUnit struct {
	span  *obs.Span
	start time.Time
}

// unitSpan is one completed runctl work unit. Kind is the unit key's
// first word: table6, table1, table2, table3 or campaign.
type unitSpan struct {
	Kind, Key  string
	Start, End time.Time
}

func (u unitSpan) seconds() float64 { return u.End.Sub(u.Start).Seconds() }

func newTracer(path string) (*tracer, error) {
	if path == "" {
		return nil, fmt.Errorf("bench: a traced run needs a trace output path")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	// Spans stay in memory until the run ends: a write per span would
	// slow the small units of the campaign workload.
	buf := bufio.NewWriterSize(f, 64<<20)
	return &tracer{t: obs.NewTracer(buf), file: f, buf: buf, open: map[string]openUnit{}}, nil
}

// attach records a span for every unit rn runs. BeforeUnit and AfterUnit
// of one unit run on the same goroutine, but units of one run may run on
// several.
func (t *tracer) attach(rn *runctl.Run) {
	if t == nil {
		return
	}
	rn.Hooks.BeforeUnit = func(unit string) {
		kind, _, _ := strings.Cut(unit, " ")
		sp := t.t.StartSpan("unit."+kind, map[string]any{"unit": unit})
		t.mu.Lock()
		t.open[unit] = openUnit{sp, time.Now()}
		t.mu.Unlock()
	}
	rn.Hooks.AfterUnit = func(unit string) {
		end := time.Now()
		t.mu.Lock()
		u, ok := t.open[unit]
		delete(t.open, unit)
		if ok {
			kind, _, _ := strings.Cut(unit, " ")
			t.units = append(t.units, unitSpan{kind, unit, u.start, end})
		}
		t.mu.Unlock()
		u.span.End()
	}
}

// takeUnits returns the units completed since the last call.
func (t *tracer) takeUnits() []unitSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	u := t.units
	t.units = nil
	return u
}

func (t *tracer) span(name string, attrs map[string]any) *obs.Span {
	if t == nil {
		return nil
	}
	return t.t.StartSpan(name, attrs)
}

func (t *tracer) startProfile() error {
	if t == nil {
		return nil
	}
	t.prof.Reset()
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return err
	}
	t.profiling = true
	return nil
}

// stopProfile ends the CPU profile and returns each layer's share of its
// samples, in percent.
func (t *tracer) stopProfile() (map[string]float64, error) {
	if t == nil || !t.profiling {
		return nil, nil
	}
	pprof.StopCPUProfile()
	t.profiling = false
	return cpuShares(t.prof.Bytes())
}

func (t *tracer) close() error {
	if t == nil || t.file == nil {
		return nil
	}
	if t.profiling {
		pprof.StopCPUProfile()
		t.profiling = false
	}
	t.t.Close()
	err := t.buf.Flush()
	if cerr := t.file.Close(); err == nil {
		err = cerr
	}
	t.file = nil
	return err
}

// profileCPU runs the measured phase under the CPU profiler and reports
// the <layer>.cpu_pct metrics.
func (r *runner) profileCPU(phase func()) error {
	if err := r.tr.startProfile(); err != nil {
		return err
	}
	phase()
	shares, err := r.tr.stopProfile()
	if err != nil {
		return err
	}
	for layer, pct := range shares {
		r.res.Metrics[layer+".cpu_pct"] = pct
	}
	return nil
}

// cpuShares decodes a gzipped pprof CPU profile (the subset of the
// profile.proto wire format runtime/pprof writes) and groups its samples
// by layer; see layerOf.
func cpuShares(data []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("bench: cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("bench: cpu profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		strs     []string
		samples  []sample
		funcName = map[uint64]uint64{}   // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = fields(raw, func(num int, v uint64, p []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := fields(p, func(num int, v uint64, p []byte) error {
				switch num {
				case 1:
					s.locs = varints(s.locs, v, p)
				case 2:
					vals = varints(vals, v, p)
				}
				return nil
			})
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(p, func(num int, v uint64, p []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(p, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := fields(p, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(p))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("bench: cpu profile: %w", err)
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					frames = append(frames, strs[i])
				}
			}
		}
		byLayer[layerOf(frames)] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	for _, l := range Layers {
		if total > 0 {
			shares[l] = 100 * float64(byLayer[l]) / float64(total)
		}
	}
	return shares, nil
}

// layerOf names the layer a sample's CPU time belongs to, given its
// frames leaf first. A runtime leaf (GC, scheduler, allocation, map and
// memory primitives) is "runtime". Other standard-library frames, such
// as math.Exp, are charged to their nearest glitchlab caller, whose
// package under internal/ names the layer.
func layerOf(frames []string) string {
	if len(frames) > 0 && isRuntime(funcPackage(frames[0])) {
		return "runtime"
	}
	for _, f := range frames {
		pkg := funcPackage(f)
		if rest, ok := strings.CutPrefix(pkg, "glitchlab/internal/"); ok {
			layer, _, _ := strings.Cut(rest, "/")
			for _, l := range Layers {
				if l == layer {
					return l
				}
			}
			return "other"
		}
		if strings.HasPrefix(pkg, "glitchlab/") {
			return "other"
		}
	}
	return "other"
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/")
}

// funcPackage returns the import path of a Go symbol name such as
// "glitchlab/internal/emu.(*CPU).Step" or "glitchlab/internal/glitcher.runBands[...]".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// fields walks the protobuf wire-format fields of msg, passing varint
// and fixed values in v and length-delimited payloads in p.
func fields(msg []byte, fn func(num int, v uint64, p []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		msg = msg[n:]
		var v uint64
		var p []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return fmt.Errorf("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("bad length")
			}
			p, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, p); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated integer field's value: one varint, or a
// packed run of them.
func varints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}
