package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/resultstore"
	"repro/internal/runner"
	"repro/internal/sweep"
)

// inprocRun is one runner.Run call made inside the benchmark process:
// the same request the CLI runs, so its output must match the CLI's
// byte for byte, and its structured results feed the decomposition
// checks.
type inprocRun struct {
	out     []byte
	results map[string]interface{} // experiment name -> assembled value
	cache   string                 // its fresh result-cache directory
	wall    time.Duration
}

// runInProcess times runner.Run as a sweep-layer span, with one child
// span per completed unit, and reports the sweep and result-cache
// metrics.
func runInProcess(e *env, r *report, rec *recorder, req runner.Request, json bool, traceDir string) (*inprocRun, error) {
	dir, err := e.dir("inproc-cache")
	if err != nil {
		return nil, err
	}
	const workers = 2
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	res := &inprocRun{results: map[string]interface{}{}, cache: dir}
	var units []float64
	var ends [workers]time.Duration // per-track wall end, for laying out unit spans
	root := rec.begin("sweep", "runner.Run "+strings.Join(req.Experiments, " "), 0, 0)
	cfg := runner.Config{
		Workers: workers, JSON: json, Out: &buf, Obs: reg,
		ResultCacheDir: dir, TraceDir: traceDir,
		OnUnit: func(ev sweep.UnitEvent) {
			if ev.Skipped || ev.Elapsed <= 0 {
				return
			}
			units = append(units, ev.Elapsed.Seconds())
			// Units report only their wall duration; place each on
			// the first track free when it started. Their CPU is not
			// known, so the span's CPU extent is empty.
			end := rec.now()
			start := stamp{Wall: end.Wall - ev.Elapsed, CPU: end.CPU}
			tr := 0
			for t := range ends {
				if ends[t] <= start.Wall {
					tr = t
					break
				}
			}
			ends[tr] = end.Wall
			rec.add("sweep", ev.Unit, root, 100+tr, start, end)
		},
		OnResult: func(x runner.Result) { res.results[x.Name] = x.Value },
	}
	t0 := time.Now()
	err = runner.Run(context.Background(), req, cfg)
	wall := time.Since(t0)
	rec.end(root)
	if err != nil {
		return nil, fmt.Errorf("in-process runner.Run: %w", err)
	}
	res.out, res.wall = buf.Bytes(), wall
	r.layer("sweep.unit_s_p50", median(units), len(units), "runner.Run unit wall times")
	r.layer("sweep.unit_s_max", maxOf(units), len(units), "slowest unit")
	r.layer("sweep.busy_share", sum(units)/(wall.Seconds()*workers), len(units),
		fmt.Sprintf("sum of unit time / (%.3fs wall x %d workers)", wall.Seconds(), workers))
	hits := reg.Counter("resultcache", "hits").Value()
	misses := reg.Counter("resultcache", "misses").Value()
	if hits+misses > 0 {
		r.layer("resultstore.hit_ratio", float64(hits)/float64(hits+misses), int(hits+misses),
			"result-cache hits / lookups in runner.Run (cold cache)")
	}
	return res, nil
}

// timeResultStore times resultstore.Store.Get on every entry in dir and
// Put of the same payloads into a fresh store.
func timeResultStore(e *env, r *report, rec *recorder, dir string) error {
	src, err := resultstore.NewStore(dir)
	if err != nil {
		return err
	}
	dstDir, err := e.dir("put-cache")
	if err != nil {
		return err
	}
	dst, err := resultstore.NewStore(dstDir)
	if err != nil {
		return err
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.res"))
	if err != nil {
		return err
	}
	if len(names) == 0 {
		return fmt.Errorf("no result-cache entries in %s", dir)
	}
	root := rec.begin("bench", "resultstore get/put", 0, 0)
	defer rec.end(root)
	var gets, puts []float64
	for _, n := range names {
		// Entry files are named by the sanitized key, which sanitizes
		// to itself, so the file name is a key that finds the entry.
		key := strings.TrimSuffix(filepath.Base(n), ".res")
		var data []byte
		var ok bool
		d := rec.timeSpan("resultstore", "Get", root, 0, func() { data, ok = src.Get(key) })
		if !ok {
			return fmt.Errorf("resultstore: entry %s did not read back", key)
		}
		gets = append(gets, d.Seconds()*1e3)
		var perr error
		d = rec.timeSpan("resultstore", "Put", root, 0, func() { perr = dst.Put(key, data) })
		if perr != nil {
			return perr
		}
		puts = append(puts, d.Seconds()*1e3)
	}
	r.layer("resultstore.get_ms_p50", median(gets), len(gets), "Store.Get on this workload's own entries")
	r.layer("resultstore.put_ms_p50", median(puts), len(puts), "Store.Put of the same payloads into a fresh store")
	return os.RemoveAll(dstDir)
}
