package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/resultstore"
	"repro/internal/runner"
	"repro/internal/sweep"
)

// daemonMix sizes: each batch is batchLen requests from two
// closed-loop clients, batchMisses of them fresh (cache misses that
// simulate and store), the rest repeating one of warmLen requests that
// set-up warmed (cache hits). A hit costs iramsimd about 6 ms of CPU
// and a miss about 170 ms on a 2-CPU box, so one miss in 96 requests
// leaves about three quarters of the batch to the hit path: result
// store reads, gob decode, rendering and HTTP.
type daemonMixSize struct{ batchLen, batchMisses, warmLen, cliSamples int }

func mixSize(e *env) daemonMixSize {
	if e.size == tiny {
		return daemonMixSize{batchLen: 6, batchMisses: 1, warmLen: 2, cliSamples: 1}
	}
	return daemonMixSize{batchLen: 96, batchMisses: 1, warmLen: 2, cliSamples: 2}
}

// hitExperiments is the request set-up warms, once per warm seed, and
// most requests repeat. missExperiments is the fresh request: Figures 7
// and 8 key their units on the instruction budget and not on the seed,
// so a budget never sent before misses every unit.
var (
	hitExperiments  = []string{"fig7", "fig8", "table4"}
	missExperiments = []string{"fig7", "fig8"}
)

// Fresh budgets lie in [missBudgetMin, missBudgetMin+missBudgetSpan),
// below every budget a hit request uses.
const missBudgetMin, missBudgetSpan = 2_000, 8_000

func hitRequest(e *env, seed int64) runner.Request {
	req := runner.Request{Experiments: hitExperiments, Quick: true, Seed: seed}
	if e.size == tiny {
		req.Budget = 20_000
	}
	return req
}

func missRequest(e *env, budget int64) runner.Request {
	return runner.Request{Experiments: missExperiments, Quick: true, Seed: e.seed, Budget: budget}
}

// mix draws the request sequence from the workload seed: the warm
// requests first, then batches of warm repeats and fresh requests, each
// fresh one on a budget never drawn before.
type mix struct {
	e    *env
	rng  *rand.Rand
	warm []runner.Request
	used map[int64]bool
}

func newMix(e *env, warmLen int) *mix {
	m := &mix{e: e, rng: rand.New(rand.NewSource(e.seed)), used: map[int64]bool{}}
	for len(m.warm) < warmLen {
		s := 2 + m.rng.Int63n(1_000_000)
		if !m.used[s] {
			m.used[s] = true
			m.warm = append(m.warm, hitRequest(e, s))
		}
	}
	m.used = map[int64]bool{}
	return m
}

// batch returns n requests, misses of them fresh, at positions drawn
// from the seed.
func (m *mix) batch(n, misses int) (reqs []runner.Request, fresh []bool) {
	fresh = make([]bool, n)
	for _, i := range m.rng.Perm(n)[:misses] {
		fresh[i] = true
	}
	reqs = make([]runner.Request, n)
	for i := range reqs {
		if !fresh[i] {
			reqs[i] = m.warm[m.rng.Intn(len(m.warm))]
			continue
		}
		for {
			b := missBudgetMin + m.rng.Int63n(missBudgetSpan)
			if !m.used[b] {
				m.used[b] = true
				reqs[i] = missRequest(m.e, b)
				break
			}
		}
	}
	return reqs, fresh
}

// body is a request's POST body, which also identifies it.
func body(req runner.Request) string {
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a Request always marshals
	}
	return string(b)
}

// daemon is a running iramsimd child process.
type daemon struct {
	cmd   *exec.Cmd
	base  string // http://host:port
	cache string
	exit  chan error
}

var listenRE = regexp.MustCompile(`listening on (http://\S+)`)

// startDaemon starts iramsimd on a free local port and waits until
// /healthz answers.
func startDaemon(e *env, cache string) (*daemon, error) {
	cmd := exec.Command(e.iramsimd(), "-addr", "127.0.0.1:0", "-result-cache", cache, "-j", "1", "-runs", "2")
	cmd.Dir = e.work
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, cache: cache, exit: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		d.exit <- cmd.Wait()
	}()
	select {
	case d.base = <-addr:
	case err := <-d.exit:
		return nil, fmt.Errorf("iramsimd exited before listening: %v", err)
	case <-time.After(20 * time.Second):
		d.kill()
		return nil, errors.New("iramsimd did not report its address")
	}
	for deadline := time.Now().Add(20 * time.Second); ; {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, errors.New("iramsimd /healthz never answered")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit,
// killing it if it does not.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return d.kill()
	}
	select {
	case err := <-d.exit:
		return err
	case <-time.After(30 * time.Second):
		return d.kill()
	}
}

func (d *daemon) kill() error {
	_ = d.cmd.Process.Kill()
	<-d.exit
	return errors.New("iramsimd had to be killed")
}

// reqResult is one client request: submit with ?stream=1, read the
// NDJSON events to the done event, then GET the run's output.
type reqResult struct {
	body                        string
	latency, firstEvent, output time.Duration
	out                         []byte
	hits, misses                int64
	rejected                    bool
	err                         error
}

// doRequest runs one closed-loop request. With a recorder it records
// the submit, stream and output phases as iramsimd spans.
func doRequest(client *http.Client, base string, body []byte, rec *recorder, parent, track int) (res reqResult) {
	t0 := time.Now()
	sid := 0
	if rec != nil {
		sid = rec.begin("iramsimd", "submit -> first event", parent, track)
	}
	endSpan := func() {
		if rec != nil && sid != 0 {
			rec.end(sid)
			sid = 0
		}
	}
	defer endSpan()
	resp, err := client.Post(base+"/v1/runs?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		res.err = fmt.Errorf("submit: %w", err)
		return res
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		res.rejected = resp.StatusCode == http.StatusTooManyRequests
		res.err = fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return res
	}
	var run, state, errMsg string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for first := true; sc.Scan(); first = false {
		if first {
			res.firstEvent = time.Since(t0)
			endSpan()
			if rec != nil {
				sid = rec.begin("iramsimd", "event stream", parent, track)
			}
		}
		var ev struct {
			Type, Run, State, Error string
			Hits                    int64 `json:"cache_hits"`
			Misses                  int64 `json:"cache_misses"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			res.err = fmt.Errorf("event stream: %w", err)
			return res
		}
		if ev.Run != "" {
			run = ev.Run
		}
		if ev.Type == "done" {
			state, errMsg, res.hits, res.misses = ev.State, ev.Error, ev.Hits, ev.Misses
		}
	}
	endSpan()
	if err := sc.Err(); err != nil {
		res.err = fmt.Errorf("event stream: %w", err)
		return res
	}
	if state != "done" {
		res.err = fmt.Errorf("run %s ended %q: %s", run, state, errMsg)
		return res
	}
	t1 := time.Now()
	if rec != nil {
		sid = rec.begin("iramsimd", "GET output", parent, track)
	}
	out, err := client.Get(base + "/v1/runs/" + run + "/output")
	if err != nil {
		res.err = fmt.Errorf("output: %w", err)
		return res
	}
	defer out.Body.Close()
	res.out, err = io.ReadAll(out.Body)
	endSpan()
	if err != nil {
		res.err = fmt.Errorf("output: %w", err)
		return res
	}
	if out.StatusCode != http.StatusOK {
		res.err = fmt.Errorf("output: HTTP %d", out.StatusCode)
		return res
	}
	res.output = time.Since(t1)
	res.latency = time.Since(t0)
	return res
}

// runBatch sends reqs from two closed-loop clients: each client sends
// its next request only when its previous one finished.
func runBatch(client *http.Client, base string, reqs []runner.Request, rec *recorder, parent int) []reqResult {
	const clients = 2
	out := make([]reqResult, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(track int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				b := body(reqs[i])
				out[i] = doRequest(client, base, []byte(b), rec, parent, track)
				out[i].body = b
			}
		}(c + 1)
	}
	wg.Wait()
	return out
}

// mixState is the daemon-mix workload's running state.
type mixState struct {
	d      *daemon
	mix    *mix
	warm   map[string]string // warm request body -> output digest served at warm-up
	fresh  map[string]string // fresh request body -> output digest
	lat    []float64         // successful request latencies, seconds
	first  []float64         // submit -> first event, ms
	output []float64         // GET output, ms
	hits   int64
	misses int64
	reject int
}

// record folds a batch's results into the state, counting each request
// as an operation of r.
func (s *mixState) record(r *report, res []reqResult) {
	for _, q := range res {
		if q.rejected {
			s.reject++
		}
		if q.err != nil {
			r.op(q.err)
			continue
		}
		d := digest(q.out)
		want, warm := s.warm[q.body]
		if warm && d != want {
			r.op(mismatch("warm request %s: output %s, warm-up served %s", q.body, d, want))
			continue
		}
		if !warm {
			s.fresh[q.body] = d
		}
		r.op(nil)
		s.lat = append(s.lat, q.latency.Seconds())
		s.first = append(s.first, q.firstEvent.Seconds()*1e3)
		s.output = append(s.output, q.output.Seconds()*1e3)
		s.hits += q.hits
		s.misses += q.misses
	}
}

// served returns the digest iramsimd served for a request body.
func (s *mixState) served(b string) string {
	if d, ok := s.warm[b]; ok {
		return d
	}
	return s.fresh[b]
}

// daemonMix serves the request mix from an iramsimd child process.
func daemonMix(e *env, r *report) error {
	sz := mixSize(e)
	client := &http.Client{Timeout: 120 * time.Second}
	st, err := timeSetups(e, r, func(k int) (*mixState, error) {
		dir, err := e.dir(fmt.Sprintf("daemon-cache-%d", k))
		if err != nil {
			return nil, err
		}
		d, err := startDaemon(e, dir)
		if err != nil {
			return nil, err
		}
		s := &mixState{d: d, mix: newMix(e, sz.warmLen), warm: map[string]string{}, fresh: map[string]string{}}
		for _, q := range runBatch(client, d.base, s.mix.warm, nil, 0) {
			if q.err != nil {
				d.stop()
				return nil, fmt.Errorf("warming %s: %w", q.body, q.err)
			}
			s.warm[q.body] = digest(q.out)
		}
		return s, nil
	}, func(s *mixState) { s.d.stop() })
	if err != nil {
		return err
	}
	defer st.d.stop()

	var walls, cpus []float64
	err = timedLoop(e, func(int) error {
		reqs, _ := st.mix.batch(sz.batchLen, sz.batchMisses)
		c0, err := procCPU(st.d.cmd.Process.Pid)
		if err != nil {
			return err
		}
		t0 := time.Now()
		res := runBatch(client, st.d.base, reqs, nil, 0)
		walls = append(walls, time.Since(t0).Seconds())
		c1, err := procCPU(st.d.cmd.Process.Pid)
		if err != nil {
			return err
		}
		cpus = append(cpus, (c1 - c0).Seconds())
		st.record(r, res)
		return nil
	})
	if err != nil {
		return err
	}
	rss, err := procPeakRSS(st.d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	if len(st.lat) == 0 {
		return fmt.Errorf("no request succeeded: %v", r.Failures)
	}
	r.set("run_s", median(walls), "s", len(walls), fmt.Sprintf("median wall per batch of %d requests", sz.batchLen))
	r.set("cpu_s", median(cpus), "s", len(cpus), "median iramsimd user+sys per batch")
	r.set("peak_rss_mb", rss, "MB", 1, "iramsimd VmHWM after the timed batches")
	r.setLatency(st.lat, "request latencies, submit to output read")

	// Warm outputs and a sample of fresh ones must equal iramsim's
	// output for the same request.
	fresh := make([]string, 0, len(st.fresh))
	for b := range st.fresh {
		fresh = append(fresh, b)
	}
	sort.Strings(fresh)
	var check []string
	var digests []byte
	for _, req := range st.mix.warm {
		check = append(check, body(req))
		digests = append(digests, st.warm[body(req)]...)
	}
	r.Digest = digest(digests)
	for _, b := range append(check, fresh[:min(len(fresh), sz.cliSamples)]...) {
		var req runner.Request
		if err := json.Unmarshal([]byte(b), &req); err != nil {
			return err
		}
		args := append(fidelityArgs(req), "-j", "2", "-no-result-cache")
		run, err := runCLI(e.work, e.iramsim(), append(args, req.Experiments...)...)
		if err == nil {
			err = sameOutput("iramsim for "+b+" vs iramsimd", run.stdout, st.served(b))
		}
		r.op(err)
	}
	if !e.trace {
		return nil
	}
	return daemonTraced(e, r, st, client, sz)
}

// daemonTraced sends traced batches over HTTP, then replays the last of
// them in process, serially, as the decomposition; and decomposes one
// miss request further into the uniprocessor layers.
func daemonTraced(e *env, r *report, st *mixState, client *http.Client, sz daemonMixSize) error {
	rec := newRecorder()
	traced := &mixState{d: st.d, mix: st.mix, warm: st.warm, fresh: st.fresh}
	batches := rec.begin("bench", "traced HTTP batches", 0, 0)
	var walls []float64
	var last []runner.Request
	var missReq runner.Request
	start := time.Now()
	for i := 0; i < 1 || time.Since(start) < e.seconds/3; i++ {
		var fresh []bool
		last, fresh = st.mix.batch(sz.batchLen, sz.batchMisses)
		for j, f := range fresh {
			if f {
				missReq = last[j]
			}
		}
		b := rec.begin("bench", fmt.Sprintf("batch %d", i), batches, 0)
		t0 := time.Now()
		res := runBatch(client, st.d.base, last, rec, b)
		walls = append(walls, time.Since(t0).Seconds())
		rec.end(b)
		traced.record(r, res)
	}
	rec.end(batches)
	r.layer("iramsimd.first_event_ms_p50", median(traced.first), len(traced.first), "POST ?stream=1 to the first NDJSON line")
	r.layer("iramsimd.output_ms_p50", median(traced.output), len(traced.output), "GET /v1/runs/{id}/output")
	r.layer("iramsimd.rejected", float64(traced.reject), len(traced.first), "HTTP 429 answers")
	if err := timeResultStore(e, r, rec, st.d.cache); err != nil {
		return err
	}

	// One miss request, re-run in process and decomposed into layers.
	in, err := runInProcess(e, r, rec, missReq, false, "")
	if err != nil {
		return err
	}
	r.op(sameOutput("in-process runner.Run", in.out, traced.fresh[body(missReq)]))
	if n := traced.hits + traced.misses; n > 0 { // the daemon's ratio, not runner.Run's cold one
		r.layer("resultstore.hit_ratio", float64(traced.hits)/float64(n), int(n), "cache_hits / units, from the daemon's done events")
	}
	opts, err := missReq.Options()
	if err != nil {
		return err
	}
	uroot := rec.begin("bench", "decompose one miss request", 0, 0)
	tot, err := decomposeUni(rec, uroot, opts, in.results, r)
	rec.end(uroot)
	if err != nil {
		return err
	}
	tot.report(r)

	roots, err := replayBatch(e, r, rec, st, last)
	if err != nil {
		return err
	}
	return finishTrace(e, r, rec, roots, r.Metrics["cpu_s"].Value, "untraced iramsimd cpu_s per batch",
		median(walls), r.Metrics["run_s"].Value, "HTTP batches with client spans")
}

// replayBatch runs reqs one after another through runner.Run in
// process, as iramsimd does for each request, on a result cache that
// holds the warm requests' entries. A runner span covers each request,
// with the result store's Get and Put calls and each missed unit's
// simulation as its children. Every output must equal what iramsimd
// served. Each pass removes the entries it stored, so the fresh
// requests miss in every pass. It returns the passes' root spans.
func replayBatch(e *env, r *report, rec *recorder, st *mixState, reqs []runner.Request) ([]int, error) {
	dir, err := e.dir("replay-cache")
	if err != nil {
		return nil, err
	}
	store, err := resultstore.NewStore(dir)
	if err != nil {
		return nil, err
	}
	run := func(req runner.Request, cache sweep.ResultCache) ([]byte, error) {
		var buf bytes.Buffer
		err := runner.Run(context.Background(), req, runner.Config{Workers: 1, Out: &buf, ResultCache: cache})
		return buf.Bytes(), err
	}
	for _, req := range st.mix.warm {
		if _, err := run(req, store); err != nil {
			return nil, fmt.Errorf("warming the replay cache: %w", err)
		}
	}
	name := fmt.Sprintf("replay a batch of %d requests in process", len(reqs))
	return decompose(rec, name, func(root int) error {
		cache := &timedCache{store: store, rec: rec, missed: map[string]stamp{}}
		for _, req := range reqs {
			cache.parent = rec.begin("runner", "runner.Run "+strings.Join(req.Experiments, " "), root, 0)
			out, err := run(req, cache)
			rec.end(cache.parent)
			if err != nil {
				return fmt.Errorf("in-process replay: %w", err)
			}
			b := body(req)
			r.op(sameOutput("in-process replay of "+b, out, st.served(b)))
		}
		for _, key := range cache.stored {
			if err := os.Remove(store.Path(key)); err != nil {
				return err
			}
		}
		return nil
	})
}

// timedCache is the result cache of the in-process replay: a
// resultstore.Store whose Get and Put calls are recorded as resultstore
// spans under parent. The time from a missed Get to the Put of the
// same key, when the unit simulates and encodes its result, is recorded
// as a sim span: the asm, vm and cacheset work that the miss
// decomposition splits further.
type timedCache struct {
	store  *resultstore.Store
	rec    *recorder
	parent int
	mu     sync.Mutex
	missed map[string]stamp // key -> end of its missed Get
	stored []string
}

func (c *timedCache) Get(key string) ([]byte, bool) {
	start := c.rec.now()
	b, ok := c.store.Get(key)
	end := c.rec.now()
	c.rec.add("resultstore", "Get", c.parent, 0, start, end)
	if !ok {
		c.mu.Lock()
		c.missed[key] = end
		c.mu.Unlock()
	}
	return b, ok
}

func (c *timedCache) Put(key string, data []byte) error {
	start := c.rec.now()
	c.mu.Lock()
	from, missed := c.missed[key]
	delete(c.missed, key)
	c.mu.Unlock()
	if missed {
		c.rec.add("sim", "simulate and encode", c.parent, 0, from, start)
	}
	err := c.store.Put(key, data)
	c.rec.add("resultstore", "Put", c.parent, 0, start, c.rec.now())
	if err == nil {
		c.stored = append(c.stored, key)
	}
	return err
}

func (c *timedCache) Acquire(key string) (release func()) { return c.store.Acquire(key) }
