package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/resultstore"
	"repro/internal/runner"
)

// TestLoadTest is the daemon's acceptance load test (`make loadtest`).
// It stands up an in-process server over a fresh result cache, warms
// the cache with one fig7 and one fig8 run, then fires eight concurrent
// overlapping streaming requests and asserts the service contract:
//
//   - every warm request is served entirely from cache (hits > 0,
//     misses == 0 in its done event);
//   - responses for the same experiment set are byte-identical;
//   - a saturated queue answers 429 (backpressure, not deadlock), and
//     the server stays responsive throughout.
func TestLoadTest(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation run")
	}
	const n, workers = 8, 4
	store, err := resultstore.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, serverConfig{Queue: 2 * n, MaxRuns: 4, Workers: workers, Store: store})

	reqs := []runner.Request{
		{Experiments: []string{"fig7"}, Quick: true, Budget: 50_000},
		{Experiments: []string{"fig8"}, Quick: true, Budget: 50_000},
	}
	warmStart := time.Now()
	for _, req := range reqs {
		if _, _, err := submitAndWait(ts.URL, req); err != nil {
			t.Fatalf("warm run: %v", err)
		}
	}
	t.Logf("cache warm in %.1fs; firing %d concurrent requests", time.Since(warmStart).Seconds(), n)

	// Overlapping warm requests: alternate fig7/fig8 so concurrent runs
	// hit the same cache entries at the same time.
	type reply struct {
		output []byte
		done   doneEvent
		err    error
	}
	start := time.Now()
	results := make([]reply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			output, done, err := submitAndWait(ts.URL, reqs[i%len(reqs)])
			results[i] = reply{output: output, done: done, err: err}
		}(i)
	}
	wg.Wait()
	t.Logf("%d warm requests in %.2fs", n, time.Since(start).Seconds())

	byExp := map[int][]byte{}
	for i, r := range results {
		if r.err != nil {
			t.Errorf("request %d: %v", i, r.err)
			continue
		}
		if r.done.State != "done" {
			t.Errorf("request %d: state %q (%s)", i, r.done.State, r.done.Error)
			continue
		}
		if r.done.CacheHits == 0 || r.done.CacheMisses != 0 {
			t.Errorf("request %d: hits=%d misses=%d, want warm (hits>0 misses==0)",
				i, r.done.CacheHits, r.done.CacheMisses)
		}
		key := i % len(reqs)
		if prev, ok := byExp[key]; !ok {
			byExp[key] = r.output
		} else if !bytes.Equal(prev, r.output) {
			t.Errorf("request %d: output differs from request %d", i, key)
		}
	}

	if rejected := probeBackpressure(t, workers); rejected == 0 {
		t.Error("backpressure probe observed no 429s")
	}
}

// doneEvent is the terminal event every run stream ends with.
type doneEvent struct {
	Type        string `json:"type"`
	State       string `json:"state"`
	Error       string `json:"error"`
	CacheHits   int64  `json:"cache_hits"`
	CacheMisses int64  `json:"cache_misses"`
}

// submitAndWait POSTs one streaming run and returns its rendered output
// plus the terminal done event.
func submitAndWait(baseURL string, req runner.Request) ([]byte, doneEvent, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, doneEvent{}, err
	}
	resp, err := http.Post(baseURL+"/v1/runs?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, doneEvent{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, doneEvent{}, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	var id string
	var done doneEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var ev struct {
			doneEvent
			Run string `json:"run"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, doneEvent{}, fmt.Errorf("bad event %q: %w", sc.Text(), err)
		}
		if ev.Run != "" {
			id = ev.Run
		}
		if ev.Type == "done" {
			done = ev.doneEvent
		}
	}
	if err := sc.Err(); err != nil {
		return nil, doneEvent{}, err
	}
	if done.Type != "done" {
		return nil, doneEvent{}, fmt.Errorf("stream ended without a done event")
	}
	outResp, err := http.Get(baseURL + "/v1/runs/" + id + "/output")
	if err != nil {
		return nil, doneEvent{}, err
	}
	defer outResp.Body.Close()
	output, err := io.ReadAll(outResp.Body)
	if err != nil {
		return nil, doneEvent{}, err
	}
	if outResp.StatusCode != http.StatusOK {
		return nil, done, fmt.Errorf("output: %s: %s", outResp.Status, bytes.TrimSpace(output))
	}
	return output, done, nil
}

// probeBackpressure floods a queue=1/runs=1 cold server and counts
// 429s; the accepted runs are canceled rather than waited for.
func probeBackpressure(t *testing.T, workers int) (rejected int) {
	t.Helper()
	s, ts := newTestServer(t, serverConfig{Queue: 1, MaxRuns: 1, Workers: workers})
	body, _ := json.Marshal(runner.Request{Experiments: []string{"fig7"}, Quick: true, Budget: 50_000})
	var ids []string
	for i := 0; i < 8; i++ {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			rejected++
		case http.StatusAccepted:
			var v struct {
				ID string `json:"id"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&v); err == nil {
				ids = append(ids, v.ID)
			}
		default:
			resp.Body.Close()
			t.Fatalf("probe submit: unexpected %s", resp.Status)
		}
		resp.Body.Close()
	}
	// Server must still answer while saturated.
	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz under load: %v", err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("healthz under load: %s", health.Status)
	}
	for _, id := range ids {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
	s.drain(time.Minute)
	t.Logf("backpressure probe: %d/8 submissions shed with 429", rejected)
	return rejected
}
