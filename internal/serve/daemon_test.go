package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"glitchlab/internal/campaign"
	"glitchlab/internal/isa"
	"glitchlab/internal/obs"
	"glitchlab/internal/runctl"
)

// Cheap specs covering all three job kinds (each well under a second).
var (
	campaignSpec = Spec{Kind: KindCampaign, Model: "and", MaxFlips: 2}
	scanSpec     = Spec{Kind: KindScan, Exp: "search"}
	evalSpec     = Spec{Kind: KindEval, Exp: "table5"}
)

const waitTimeout = 30 * time.Second

// golden runs a spec directly through Exec — the CLI path — and caches
// the bytes; daemon results must match these byte for byte.
var (
	goldenMu    sync.Mutex
	goldenByKey = map[string][]byte{}
)

func golden(t *testing.T, spec Spec) []byte {
	t.Helper()
	n := mustNormalize(t, spec)
	key := n.CacheKey("golden")
	goldenMu.Lock()
	defer goldenMu.Unlock()
	if body, ok := goldenByKey[key]; ok {
		return body
	}
	var buf bytes.Buffer
	if err := Exec(n, Env{Workers: 1}, &buf); err != nil {
		t.Fatalf("direct Exec(%+v): %v", n, err)
	}
	goldenByKey[key] = buf.Bytes()
	return buf.Bytes()
}

// openTestDaemon starts a daemon with an isolated registry and closes it
// with the test. Mutating cfg fields before the call customizes it.
func openTestDaemon(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	if cfg.Reg == nil {
		cfg.Reg = obs.NewRegistry()
	}
	d, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func startServer(t *testing.T, d *Daemon) *httptest.Server {
	t.Helper()
	mux := d.Registry().Mux()
	d.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func postJob(t *testing.T, srv *httptest.Server, body string) (int, submitResponse, string) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var sub submitResponse
	_ = json.Unmarshal(raw, &sub)
	return resp.StatusCode, sub, string(raw)
}

func getBody(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, raw
}

func specJSON(t *testing.T, spec Spec) string {
	t.Helper()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestDaemonHTTPEndToEnd is the satellite e2e suite: submit, poll status,
// stream events and fetch the result over HTTP for all three job kinds,
// asserting the result bytes are identical to a direct engine run.
func TestDaemonHTTPEndToEnd(t *testing.T) {
	d := openTestDaemon(t, Config{})
	srv := startServer(t, d)

	kinds := []struct {
		name string
		spec Spec
	}{
		{"campaign", campaignSpec},
		{"scan", scanSpec},
		{"eval", evalSpec},
	}
	ids := make([]string, len(kinds))
	for i, k := range kinds {
		code, sub, raw := postJob(t, srv, specJSON(t, k.spec))
		if code != http.StatusAccepted {
			t.Fatalf("%s: POST = %d, want 202; body %s", k.name, code, raw)
		}
		if sub.CacheHit || sub.Coalesced {
			t.Fatalf("%s: fresh submission flagged cache_hit/coalesced: %s", k.name, raw)
		}
		ids[i] = sub.Job.ID
	}

	for i, k := range kinds {
		id := ids[i]
		want := golden(t, k.spec)

		// Result with ?wait= blocks until done and returns the bytes.
		code, _, body := getBody(t, srv.URL+"/v1/jobs/"+id+"/result?wait=1")
		if code != http.StatusOK {
			t.Fatalf("%s: result = %d, body %s", k.name, code, body)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("%s: daemon result differs from direct engine run (%d vs %d bytes)",
				k.name, len(body), len(want))
		}

		// Status reflects the finished job.
		code, _, raw := getBody(t, srv.URL+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("%s: status = %d", k.name, code)
		}
		var st Status
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("%s: status JSON: %v", k.name, err)
		}
		if st.State != StateDone || st.ResultSize != int64(len(want)) || st.Kind != k.spec.Kind {
			t.Errorf("%s: status = %+v, want done with %d result bytes", k.name, st, len(want))
		}

		// Event stream: whole JSONL records, lifecycle markers, and offset
		// paging via the next-offset header.
		code, hdr, events := getBody(t, srv.URL+"/v1/jobs/"+id+"/events")
		if code != http.StatusOK || len(events) == 0 {
			t.Fatalf("%s: events = %d (%d bytes)", k.name, code, len(events))
		}
		var names []string
		for _, line := range bytes.Split(bytes.TrimSuffix(events, []byte("\n")), []byte("\n")) {
			var rec struct {
				Name string `json:"name"`
			}
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("%s: torn or invalid event record %q: %v", k.name, line, err)
			}
			names = append(names, rec.Name)
		}
		joined := strings.Join(names, " ")
		for _, want := range []string{"job.queued", "job.start", "job.done"} {
			if !strings.Contains(joined, want) {
				t.Errorf("%s: event stream missing %s (got %s)", k.name, want, joined)
			}
		}
		next := hdr.Get(NextOffsetHeader)
		if off, err := strconv.Atoi(next); err != nil || off != len(events) {
			t.Errorf("%s: next offset %q, want %d", k.name, next, len(events))
		}
		code, hdr2, tail := getBody(t, srv.URL+"/v1/jobs/"+id+"/events?offset="+next)
		if code != http.StatusOK || len(tail) != 0 || hdr2.Get(NextOffsetHeader) != next {
			t.Errorf("%s: paged events = %d, %d bytes, next %q; want empty at same offset",
				k.name, code, len(tail), hdr2.Get(NextOffsetHeader))
		}

		// Per-job metric deltas are available once the job executed.
		code, _, diff := getBody(t, srv.URL+"/v1/jobs/"+id+"/metrics")
		if code != http.StatusOK || !json.Valid(diff) {
			t.Errorf("%s: metrics = %d, valid JSON %v", k.name, code, json.Valid(diff))
		}
	}

	// Campaign jobs checkpoint per work unit; the status must say so.
	code, _, raw := getBody(t, srv.URL+"/v1/jobs/"+ids[0])
	var st Status
	if code != http.StatusOK || json.Unmarshal(raw, &st) != nil {
		t.Fatalf("campaign status = %d %s", code, raw)
	}
	if st.UnitsDone == 0 {
		t.Error("campaign job reported zero completed work units")
	}

	// Job list, both encodings.
	code, _, raw = getBody(t, srv.URL+"/v1/jobs")
	var list struct {
		Jobs []Status `json:"jobs"`
	}
	if code != http.StatusOK || json.Unmarshal(raw, &list) != nil || len(list.Jobs) != 3 {
		t.Errorf("job list = %d with %d jobs, want 3", code, len(list.Jobs))
	}
	code, _, text := getBody(t, srv.URL+"/v1/jobs?format=text")
	if code != http.StatusOK || !strings.Contains(string(text), ids[0]) {
		t.Errorf("text job list = %d, missing %s:\n%s", code, ids[0], text)
	}

	// Health: everything drained, stamp published.
	code, _, raw = getBody(t, srv.URL+"/healthz")
	var health struct {
		OK       bool   `json:"ok"`
		Queued   int    `json:"queued"`
		Running  int    `json:"running"`
		QueueCap int    `json:"queue_cap"`
		Stamp    string `json:"stamp"`
	}
	if code != http.StatusOK || json.Unmarshal(raw, &health) != nil {
		t.Fatalf("healthz = %d %s", code, raw)
	}
	if !health.OK || health.Queued != 0 || health.Running != 0 || health.Stamp != d.Stamp() {
		t.Errorf("healthz = %+v, want drained and stamped", health)
	}

	// The shared mux also serves the obs endpoints with daemon metrics.
	code, _, metrics := getBody(t, srv.URL+"/metrics")
	if code != http.StatusOK || !strings.Contains(string(metrics), MetricJobsSubmitted) {
		t.Errorf("/metrics = %d, missing %s", code, MetricJobsSubmitted)
	}
}

// TestDaemonHTTPErrors covers the API's failure contract: malformed
// submissions are 400, unknown jobs 404, and an unfinished job's result
// is 409 with a status body saying what state it is in.
func TestDaemonHTTPErrors(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release) // before the daemon Close cleanup, so executors drain
	d := openTestDaemon(t, Config{UnitHook: func(string, string) {
		<-gate
	}})
	srv := startServer(t, d)

	for _, bad := range []string{
		`{"kind":"bake"}`,
		`{"kind":"scan","exp":"table9"}`,
		`{"kind":"campaign","workers":4}`, // unknown field
		`not json`,
	} {
		if code, _, raw := postJob(t, srv, bad); code != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400; body %s", bad, code, raw)
		}
	}

	for _, path := range []string{
		"/v1/jobs/j999999", "/v1/jobs/j999999/result",
		"/v1/jobs/j999999/events", "/v1/jobs/j999999/metrics",
	} {
		if code, _, _ := getBody(t, srv.URL+path); code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, code)
		}
	}

	// A held-open job: result without wait is 409 and reports the state.
	code, sub, _ := postJob(t, srv, specJSON(t, campaignSpec))
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d, want 202", code)
	}
	code, _, raw := getBody(t, srv.URL+"/v1/jobs/"+sub.Job.ID+"/result")
	if code != http.StatusConflict {
		t.Fatalf("result of unfinished job = %d, want 409", code)
	}
	var st Status
	if err := json.Unmarshal(raw, &st); err != nil || st.State.Terminal() {
		t.Errorf("409 body = %s, want a non-terminal status", raw)
	}
	release()
	if !d.WaitTerminal(sub.Job.ID, waitTimeout) {
		t.Fatal("job did not finish after release")
	}
}

// TestDaemonFailedJobDurable plants a drifted runctl manifest under the
// predictable first job ID so execution fails deterministically, then
// checks the failure is recorded durably: the API reports it, and a
// restarted daemon does not retry it.
func TestDaemonFailedJobDurable(t *testing.T) {
	state := t.TempDir()
	runDir := state + "/jobs/j000001/run"
	rn, err := runctl.Open(context.Background(), runDir,
		runctl.Manifest{Tool: "glitchemu", ConfigHash: "drifted"}, false)
	if err != nil {
		t.Fatal(err)
	}
	rn.Close()

	reg := obs.NewRegistry()
	d := openTestDaemon(t, Config{StateDir: state, Reg: reg})
	res, err := d.Submit(campaignSpec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Job.ID != "j000001" {
		t.Fatalf("first job ID = %s, want j000001", res.Job.ID)
	}
	if !d.WaitTerminal(res.Job.ID, waitTimeout) {
		t.Fatal("job did not reach a terminal state")
	}
	st := res.Job.Status()
	if st.State != StateFailed || st.Error == "" {
		t.Fatalf("status = %+v, want failed with an error", st)
	}
	if _, err := d.Result(res.Job.ID); err == nil {
		t.Error("Result of a failed job must error")
	}
	d.Close()

	d2 := openTestDaemon(t, Config{StateDir: state, Reg: obs.NewRegistry()})
	j2, ok := d2.Job("j000001")
	if !ok {
		t.Fatal("failed job lost across restart")
	}
	if st2 := j2.Status(); st2.State != StateFailed || st2.Error != st.Error {
		t.Errorf("recovered status = %+v, want the recorded failure %q", st2, st.Error)
	}
	if n := d2.Registry().Counter(MetricJobsResumed).Value(); n != 0 {
		t.Errorf("failed job was re-enqueued %d times, want 0 (no retry of deterministic failures)", n)
	}
}

// TestDaemonQueueFull: admission beyond QueueCap is rejected with
// ErrQueueFull (HTTP 429) while distinct jobs hold the queue.
func TestDaemonQueueFull(t *testing.T) {
	gate := make(chan struct{})
	t.Cleanup(func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	})
	d := openTestDaemon(t, Config{QueueCap: 2, Executors: 1, UnitHook: func(string, string) {
		<-gate
	}})
	srv := startServer(t, d)

	ids := make([]string, 0, 2)
	for i := 0; i < 2; i++ {
		spec := Spec{Kind: KindCampaign, Model: "and", MaxFlips: i + 1}
		code, sub, raw := postJob(t, srv, specJSON(t, spec))
		if code != http.StatusAccepted {
			t.Fatalf("submission %d = %d, body %s", i, code, raw)
		}
		ids = append(ids, sub.Job.ID)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(specJSON(t, Spec{Kind: KindCampaign, Model: "xor", MaxFlips: 1})))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap submission = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if n := d.Registry().Counter(MetricJobsRejected).Value(); n != 1 {
		t.Errorf("rejected counter = %d, want 1", n)
	}
	close(gate)
	for _, id := range ids {
		if !d.WaitTerminal(id, waitTimeout) {
			t.Fatalf("job %s did not drain", id)
		}
	}
}

// TestDaemonJobWorkersDefault pins the per-job worker budget contract:
// the budget splits GOMAXPROCS across executors, floored at one.
func TestDaemonJobWorkersDefault(t *testing.T) {
	over := 2 * runtime.GOMAXPROCS(0) // more executors than cores
	d := openTestDaemon(t, Config{Executors: over})
	if d.cfg.JobWorkers != 1 {
		t.Errorf("JobWorkers = %d with %d executors, want floor of 1", d.cfg.JobWorkers, over)
	}
	d2 := openTestDaemon(t, Config{Executors: 1, JobWorkers: 3})
	if d2.cfg.JobWorkers != 3 {
		t.Errorf("explicit JobWorkers = %d, want 3", d2.cfg.JobWorkers)
	}
}

// TestDaemonTracesAtDefaultSampling submits a small campaign and reads
// its event stream. Every job.* event is there: job.start, one job.unit
// per work unit and job.done. The per-execution records are sampled at
// obs.DefaultSampling, so they are exactly (t_us aside) the ones Exec
// writes for the same spec through a tracer at the default rate.
func TestDaemonTracesAtDefaultSampling(t *testing.T) {
	d := openTestDaemon(t, Config{})
	res, err := d.Submit(campaignSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !d.WaitTerminal(res.Job.ID, waitTimeout) {
		t.Fatal("job did not finish")
	}
	served, err := os.ReadFile(d.EventsPath(res.Job.ID))
	if err != nil {
		t.Fatal(err)
	}

	var direct, out bytes.Buffer
	tr := obs.NewTracer(&direct)
	if err := Exec(mustNormalize(t, campaignSpec), Env{Workers: 2, Reg: obs.NewRegistry(), Tracer: tr}, &out); err != nil {
		t.Fatal(err)
	}
	tr.Close()

	tUs := regexp.MustCompile(`"t_us":[0-9]*,`)
	execRecords := func(stream []byte) (recs []string, names map[string]int) {
		names = map[string]int{}
		for _, line := range bytes.Split(bytes.TrimSuffix(stream, []byte("\n")), []byte("\n")) {
			var rec obs.Record
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("invalid event record %q: %v", line, err)
			}
			names[rec.Name]++
			if rec.Name == "campaign.exec" {
				recs = append(recs, tUs.ReplaceAllString(string(line), ""))
			}
		}
		return recs, names
	}
	got, names := execRecords(served)
	want, _ := execRecords(direct.Bytes())
	units := len(isa.BranchConds()) * (campaignSpec.MaxFlips + 1)
	for name, n := range map[string]int{"job.start": 1, "job.unit": units, "job.done": 1} {
		if names[name] != n {
			t.Errorf("%d %s events, want %d", names[name], name, n)
		}
	}
	if len(want) == 0 || len(want) >= int(campaign.PlannedRuns(campaignSpec.MaxFlips)) {
		t.Fatalf("direct run kept %d campaign.exec records, want a sampled subset", len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("served campaign.exec records differ from Exec's:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
