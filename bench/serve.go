package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"glitchlab/internal/obs/query"
	"glitchlab/internal/serve"
	"glitchlab/internal/serve/client"
)

// The serve workload's load shape: glitchd with 2 executors running each
// job serially, driven by 2 closed-loop clients over loopback HTTP.
const (
	serveExecutors = 2
	serveClients   = 2
	// serveBlocks derived scan seeds bound the spec pool; a run ends when
	// its duration is up or the pool is exhausted.
	serveBlocks = 40
	// repeatLag keeps a repeat at least this many fresh submissions
	// behind its original, so it usually finds the result cached rather
	// than in flight.
	repeatLag = 6
)

var scanExps = []string{"table1a", "table1b", "table1c", "table2", "search"}

// scanSeed derives the fault-model seed of the serve pool's block b.
func scanSeed(seed uint64, b int) uint64 { return seed*1000 + uint64(b) + 1 }

// serveGroups lists the distinct specs of a seed's glitchd traffic in
// groups: 9 campaigns and 5 evals that ignore the seed, then the 5 scan
// experiments for each of blocks derived fault-model seeds.
func serveGroups(seed uint64, blocks int) [][]serve.Spec {
	var fixed []serve.Spec
	for _, m := range []string{"and", "or", "xor"} {
		for k := 1; k <= 3; k++ {
			fixed = append(fixed, serve.Spec{Kind: serve.KindCampaign, Model: m, MaxFlips: k})
		}
	}
	for _, e := range []string{"table4", "table5", "lint", "table7"} {
		fixed = append(fixed, serve.Spec{Kind: serve.KindEval, Exp: e})
	}
	fixed = append(fixed, serve.Spec{Kind: serve.KindEval, Exp: "figure2", MaxFlips: 2})
	groups := [][]serve.Spec{fixed}
	for b := 0; b < blocks; b++ {
		var block []serve.Spec
		for _, e := range scanExps {
			block = append(block, scanSpec(scanSeed(seed, b), e))
		}
		groups = append(groups, block)
	}
	return groups
}

// servePool lists every spec of serveGroups.
func servePool(seed uint64, blocks int) []serve.Spec {
	var pool []serve.Spec
	for _, g := range serveGroups(seed, blocks) {
		pool = append(pool, g...)
	}
	return pool
}

// request is one submission in the seeded traffic sequence.
type request struct {
	spec   serve.Spec
	repeat bool
}

// serveSequence orders a seed's pool into the traffic the clients send:
// the groups in order, each shuffled, with a repeat of an earlier spec
// after every fresh one from the repeatLag-th on. Sending whole groups
// keeps the mix of cold work the same whatever the seed.
func serveSequence(seed uint64, blocks int) []request {
	rng := rand.New(rand.NewPCG(seed, 0x676c69746368))
	var fresh []serve.Spec
	for _, g := range serveGroups(seed, blocks) {
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
		fresh = append(fresh, g...)
	}
	var seq []request
	for i, f := range fresh {
		seq = append(seq, request{spec: f})
		if i >= repeatLag {
			seq = append(seq, request{spec: fresh[rng.IntN(i-repeatLag+1)], repeat: true})
		}
	}
	return seq
}

// served is one submission's outcome as its client saw it.
type served struct {
	req       request
	jobID     string
	submitS   float64 // POST round trip
	latencyS  float64 // submit to result body
	hit, coal bool
	body      []byte
	err       error
}

func (s served) cold() bool { return !s.hit && !s.coal }

// countingTransport counts the responses the glitchd client retries on:
// transport errors, 429, and 5xx.
type countingTransport struct {
	base    http.RoundTripper
	retries atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err != nil || resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
		c.retries.Add(1)
	}
	return resp, err
}

// serveFixture is an in-process glitchd on loopback HTTP with its
// clients.
type serveFixture struct {
	state     string
	d         *serve.Daemon
	clients   []*client.Client
	transport *countingTransport
	seq       []request
	next      int // first request not yet sent
}

func prepareServe(r *runner) (func() error, error) {
	f := &serveFixture{state: filepath.Join(r.dir, "state")}
	if r.cfg.Small {
		f.seq = serveSequence(r.cfg.Seed, 1)[:10]
	} else {
		f.seq = serveSequence(r.cfg.Seed, serveBlocks)
	}
	d, err := serve.Open(serve.Config{StateDir: f.state, Executors: serveExecutors, JobWorkers: 1})
	if err != nil {
		return nil, err
	}
	f.d = d
	r.onClose(func() { d.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: d.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	r.onClose(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	})
	f.transport = &countingTransport{base: &http.Transport{MaxConnsPerHost: serveClients}}
	r.onClose(f.transport.base.(*http.Transport).CloseIdleConnections)
	for i := 0; i < serveClients; i++ {
		c, err := client.New(client.Config{
			BaseURL:    "http://" + ln.Addr().String(),
			HTTP:       &http.Client{Transport: f.transport},
			JitterSeed: r.cfg.Seed*serveClients + uint64(i) + 1,
		})
		if err != nil {
			return nil, err
		}
		f.clients = append(f.clients, c)
	}
	return func() error { return f.measure(r) }, nil
}

// drive sends the sequence from f.next on with every client in a closed
// loop until d has elapsed or the sequence ends, and returns the
// outcomes in sequence order with the elapsed time.
func (f *serveFixture) drive(r *runner, d time.Duration) ([]served, time.Duration) {
	start := time.Now()
	var idx atomic.Int64
	idx.Store(int64(f.next))
	out := make([]served, len(f.seq))
	var wg sync.WaitGroup
	for _, c := range f.clients {
		wg.Add(1)
		go func(c *client.Client) {
			defer wg.Done()
			for d == 0 || time.Since(start) < d {
				i := int(idx.Add(1) - 1)
				if i >= len(f.seq) {
					return
				}
				out[i] = send(r, c, f.seq[i])
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	// Every index taken below len(f.seq) was sent.
	end := min(int(idx.Load()), len(f.seq))
	res := out[f.next:end]
	f.next = end
	return res, elapsed
}

// send drives one submission to its result.
func send(r *runner, c *client.Client, req request) served {
	s := served{req: req}
	sp := r.tr.span("serve.request", map[string]any{"spec": specKey(req.spec), "repeat": req.repeat})
	defer sp.End()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	start := time.Now()
	sub, err := c.Submit(ctx, req.spec)
	s.submitS = time.Since(start).Seconds()
	if err != nil {
		s.err = err
		return s
	}
	s.jobID, s.hit, s.coal = sub.Job.ID, sub.CacheHit, sub.Coalesced
	s.body, s.err = c.Result(ctx, sub.Job.ID)
	s.latencyS = time.Since(start).Seconds()
	return s
}

func (f *serveFixture) measure(r *runner) error {
	d := r.cfg.Duration
	if r.cfg.Small {
		d = 0 // the whole (short) sequence
	}
	var recs []served
	var elapsed time.Duration
	if !r.cfg.Trace {
		recs, elapsed = f.drive(r, d)
	} else {
		reg := f.d.Registry()
		coal0, rej0 := reg.Counter(serve.MetricJobsCoalesced).Value(), reg.Counter(serve.MetricJobsRejected).Value()
		if err := r.traced(func() { recs, elapsed = f.drive(r, d) }); err != nil {
			return err
		}
		r.res.Metrics["serve.coalesced"] = float64(reg.Counter(serve.MetricJobsCoalesced).Value() - coal0)
		r.res.Metrics["serve.rejected"] = float64(reg.Counter(serve.MetricJobsRejected).Value() - rej0)
		r.res.Metrics["client.retries"] = float64(f.transport.retries.Load())
		if err := f.layers(r, recs); err != nil {
			return err
		}
		// Untraced reference: the next quarter-run of the same traffic.
		tr := r.tr
		r.tr = nil
		ref, _ := f.drive(r, d/4)
		r.tr = tr
		r.overhead(coldLatencies(recs), coldLatencies(ref))
		recs = append(recs, ref...)
	}
	if len(recs) == 0 {
		return errors.New("serve: no request completed")
	}
	if !r.cfg.Trace {
		r.report("wall_s", coldLatencies(recs))
		r.res.Metrics["ops_per_s"] = float64(len(recs)) / elapsed.Seconds()
		r.res.Samples["ops_per_s"] = len(recs)
	}
	return f.verify(r, recs)
}

func coldLatencies(recs []served) []float64 {
	var out []float64
	for _, s := range recs {
		if s.err == nil && s.cold() {
			out = append(out, s.latencyS)
		}
	}
	return out
}

// layers reports the traced run's serve, runctl and obs metrics from the
// client-side timings and the files the daemon left in its state dir.
func (f *serveFixture) layers(r *runner, recs []served) error {
	var submit, exec, wait, warm, all []float64
	hits := 0
	for _, s := range recs {
		if s.err != nil {
			continue
		}
		submit = append(submit, s.submitS)
		all = append(all, s.latencyS)
		if s.hit {
			hits++
			warm = append(warm, s.latencyS)
		}
		if !s.cold() {
			continue
		}
		// job.start and job.done carry t_us from the job's tracer, created
		// when an executor picks the job up.
		tr, err := query.LoadFile(f.d.EventsPath(s.jobID))
		if err != nil {
			return err
		}
		var t0, t1 int64 = -1, -1
		for _, rec := range tr.Records {
			switch rec.Name {
			case "job.start":
				t0 = rec.TUs
			case "job.done":
				t1 = rec.TUs
			}
		}
		if t0 >= 0 && t1 >= t0 {
			// The job may start before the POST returns, so its wait is
			// latency - exec: admission, queueing and result delivery.
			e := float64(t1-t0) / 1e6
			exec = append(exec, e)
			wait = append(wait, s.latencyS-e)
		}
	}
	r.report("serve.submit_s", submit)
	r.report("serve.exec_s", exec)
	r.report("serve.queue_wait_s", wait)
	r.report("serve.warm_s", warm)
	r.res.Metrics["serve.latency_p95_s"] = Quantile(all, 0.95)
	r.res.Samples["serve.latency_p95_s"] = len(all)
	if len(all) > 0 {
		r.res.Metrics["serve.hit_ratio"] = float64(hits) / float64(len(all))
	}

	jobs, err := os.ReadDir(filepath.Join(f.state, "jobs"))
	if err != nil {
		return err
	}
	var runB, evB, resB, records int64
	for _, j := range jobs {
		dir := filepath.Join(f.state, "jobs", j.Name())
		runB += dirBytes(filepath.Join(dir, "run"))
		resB += dirBytes(filepath.Join(dir, "result.txt"))
		data, err := os.ReadFile(filepath.Join(dir, "events.jsonl"))
		if err == nil {
			evB += int64(len(data))
			records += int64(bytes.Count(data, []byte("\n")))
		}
	}
	if n := float64(len(jobs)); n > 0 {
		r.res.Metrics["runctl.checkpoint_mb"] = float64(runB) / mib / n
		r.res.Metrics["obs.trace_records"] = float64(records) / n
		r.res.Metrics["obs.trace_mb"] = float64(evB) / mib / n
		r.res.Metrics["serve.result_mb"] = float64(resB) / mib / n
		r.res.Metrics["serve.disk_mb"] = float64(dirBytes(f.state)) / mib / n
	}
	return nil
}

// verify checks every body: against the golden where one pins the spec,
// else against the first body of the same spec; and recomputes two
// seed-chosen cold scan results no golden pins directly through
// serve.Exec.
func (f *serveFixture) verify(r *runner, recs []served) error {
	first := map[string][]byte{}
	var unpinned []served
	for _, s := range recs {
		r.res.Attempted++
		if s.err != nil {
			r.fail("serve %s: %v", specKey(s.req.spec), s.err)
			continue
		}
		key := specKey(s.req.spec)
		want := ""
		if r.golden != nil {
			want = r.golden.Serve[key]
		}
		if want == "" {
			want = r.ref.Serve[key]
		}
		if want != "" {
			r.check(sha(s.body) == want, "serve %s: body differs from golden", key)
		}
		if b, ok := first[key]; ok {
			r.check(bytes.Equal(b, s.body), "serve %s: hit=%t body differs from the first", key, s.hit)
		} else {
			first[key] = s.body
			if want == "" {
				unpinned = append(unpinned, s)
			}
		}
	}
	rng := rand.New(rand.NewPCG(r.cfg.Seed, 2))
	for i := 0; i < 2 && len(unpinned) > 0; i++ {
		j := rng.IntN(len(unpinned))
		s := unpinned[j]
		unpinned = append(unpinned[:j], unpinned[j+1:]...)
		out, err := execBare(s.req.spec, 1)
		if err != nil {
			return fmt.Errorf("serve recheck %s: %w", specKey(s.req.spec), err)
		}
		r.check(bytes.Equal(out, s.body), "serve %s: served body differs from serve.Exec", specKey(s.req.spec))
	}
	return nil
}
