package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkFile(t)
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Errorf("%d workloads, want 2-8", len(b.Workloads))
	}
	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", len(b.EndToEnd))
	}
	if len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", len(b.PerLayer))
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1-60", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", b.Paths)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	var workloads []string
	for _, w := range b.Workloads {
		name(w.Name)
		workloads = append(workloads, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}
	if strings.Join(workloads, ",") != strings.Join(Workloads(), ",") {
		t.Errorf("workloads %v, glitchbench runs %v", workloads, Workloads())
	}
	direction := func(n, better string) {
		if better != "lower" && better != "higher" {
			t.Errorf("metric %s: better %q", n, better)
		}
	}
	setup := false
	for _, m := range b.EndToEnd {
		name(m.Name)
		direction(m.Name, m.Better)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("metric %s: bound must be in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range b.PerLayer {
		name(m.Name)
		direction(m.Name, m.Better)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
	}
	declared := func(ms []Metric) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	sameSet(t, "end_to_end", e2e, declared(EndToEnd))
	sameSet(t, "per_layer", layer, declared(PerLayer))
}

func sameSet(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	for n, u := range want {
		if got[n] != u {
			t.Errorf("%s: %s has unit %q, glitchbench reports %q", what, n, got[n], u)
		}
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			t.Errorf("%s: %s is declared but glitchbench does not report it", what, n)
		}
	}
}

// TestPrintedNames runs the glitchbench command, untraced and traced,
// and checks that its result line names exactly the declared metrics,
// with their units.
func TestPrintedNames(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs glitchbench")
	}
	b := loadBenchmarkFile(t)
	want := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range b.EndToEnd {
		want["0"][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		want["1"][m.Name] = m.Unit
	}
	dir := t.TempDir()
	for _, trace := range []string{"0", "1"} {
		cmd := exec.Command("go", "run", "./cmd/glitchbench", "--workload", "campaign",
			"--seed", "1", "--seconds", "1", "--trace", trace,
			"-workdir", dir, "-trace-out", dir+"/trace.jsonl")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("trace %s: %v", trace, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("trace %s: last line %q: %v", trace, lines[len(lines)-1], err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace %s: correct=%t attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
		}
		got := map[string]string{}
		for n, v := range res.Metrics {
			got[n] = v.Unit
		}
		sameSet(t, "trace "+trace, got, want[trace])
		if trace == "0" {
			var names []string
			for n, v := range res.Metrics {
				if v.Value == 0 {
					names = append(names, n)
				}
			}
			sort.Strings(names)
			if len(names) > 0 {
				t.Errorf("end-to-end metrics read 0: %v", names)
			}
		}
	}
}
