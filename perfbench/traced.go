package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// decompositionPasses is how many times the traced run repeats a
// workload's decomposition: one pass of splash-mp is half a second, and
// its CPU time moved by a quarter from one run to the next.
const decompositionPasses = 3

// decompose runs pass decompositionPasses times, each under a bench
// root span of its own, and returns the roots.
func decompose(rec *recorder, name string, pass func(root int) error) ([]int, error) {
	var roots []int
	for p := 1; p <= decompositionPasses; p++ {
		root := rec.begin("bench", fmt.Sprintf("%s, pass %d", name, p), 0, 0)
		err := pass(root)
		rec.end(root)
		if err != nil {
			return nil, err
		}
		roots = append(roots, root)
	}
	return roots, nil
}

// finishTrace derives the bench.* metrics, records each layer's self
// time per decomposition pass, and writes the Chrome trace-event file.
//
// Each pass re-does the untraced program's work under its root, one
// call after another, so a pass's layer self time on the CPU clock is
// divided by explain, the untraced program's CPU seconds per iteration
// that it is meant to account for (explainWhat says which): work the
// decomposition leaves out lowers the share. CPU is compared with CPU
// so that time the box gives to other processes counts on neither side. Spans of the
// bench layer are glue, and probes of a layer that the program itself
// does not make hang under another root, so neither counts.
//
// traced and untraced are wall seconds of the same request path with
// and without span recording; pathWhat names the path.
func finishTrace(e *env, r *report, rec *recorder, roots []int, explain float64, explainWhat string,
	traced, untraced float64, pathWhat string) error {
	spans := rec.snapshot()
	self := selfTimes(spans, true)
	parent := map[int]int{}
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	isRoot := map[int]bool{}
	for _, id := range roots {
		isRoot[id] = true
	}
	under := func(id int) bool {
		for p := parent[id]; p != 0; p = parent[p] {
			if isRoot[p] {
				return true
			}
		}
		return false
	}
	var total time.Duration
	n := 0
	r.SelfTime = map[string]float64{}
	for _, s := range spans {
		if s.Layer != "bench" && under(s.ID) {
			total += self[s.ID]
			r.SelfTime[s.Layer] += self[s.ID].Seconds() / float64(len(roots))
			n++
		}
	}
	accounted := total.Seconds() / float64(len(roots))
	r.SelfTime["unaccounted"] = explain - accounted
	r.layer("bench.accounted_share", accounted/explain, n,
		fmt.Sprintf("layer self CPU %.3fs per pass (mean of %d) / %s %.3fs", accounted, len(roots), explainWhat, explain))
	r.layer("bench.tracing_overhead_pct", 100*(traced-untraced)/untraced, 1,
		fmt.Sprintf("%s: traced %.3fs vs untraced run_s %.3fs", pathWhat, traced, untraced))

	dir := filepath.Join(e.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", e.workload, e.seed)))
	if err != nil {
		return err
	}
	werr := writeChromeTrace(f, spans)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
