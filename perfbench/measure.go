package main

import (
	"fmt"
	"time"
)

// timeSetups runs setup e.setups times and reports setup_s as the
// median; every set-up but the last is torn down, and the last one's
// state is returned for the timed iterations.
func timeSetups[T any](e *env, r *report, setup func(k int) (T, error), teardown func(T)) (T, error) {
	var st T
	var secs []float64
	n := e.setups
	if e.trace {
		n = 1 // the traced run reports no end-to-end metrics
	}
	for k := 0; k < n; k++ {
		if k > 0 && teardown != nil {
			teardown(st)
		}
		t0 := time.Now()
		var err error
		st, err = setup(k)
		if err != nil {
			return st, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(secs), "s", len(secs), "median set-up")
	return st, nil
}

// timedLoop calls iter until the run has measured e.seconds, and at
// least e.minIters times. The traced run spends a third of its time
// on untraced iterations and needs only one.
func timedLoop(e *env, iter func(i int) error) error {
	budget, least := e.seconds, e.minIters
	if e.trace {
		budget, least = e.seconds/3, 1
	}
	start := time.Now()
	for i := 0; i < least || time.Since(start) < budget; i++ {
		if err := iter(i); err != nil {
			return err
		}
	}
	return nil
}

// cliStats accumulates the timed invocations of a CLI workload and
// checks that every invocation printed the same bytes.
type cliStats struct {
	wall, cpu, rss []float64
	want           string // digest of the first successful output
	first          []byte
}

// add records one finished invocation as an operation of r: a failed
// run, or output differing from the first iteration's, is a failure.
// It reports whether the output is usable.
func (c *cliStats) add(r *report, run cliRun, err error) bool {
	if err != nil {
		r.op(err)
		return false
	}
	d := digest(run.stdout)
	if c.want == "" {
		c.want, c.first = d, run.stdout
		r.Digest = d
	}
	if d != c.want {
		r.op(mismatch("iteration output digest %s differs from the first iteration's %s", d, c.want))
		return false
	}
	r.op(nil)
	c.wall = append(c.wall, run.wall.Seconds())
	c.cpu = append(c.cpu, run.cpu.Seconds())
	c.rss = append(c.rss, run.rssMB)
	return true
}

// report sets the per-iteration end-to-end metrics. For a CLI workload
// one operation is one invocation, so the latency metrics describe the
// invocation wall times.
func (c *cliStats) report(r *report) error {
	if len(c.wall) == 0 {
		return fmt.Errorf("no iteration succeeded: %v", r.Failures)
	}
	r.set("run_s", median(c.wall), "s", len(c.wall), "median wall per iteration")
	r.set("cpu_s", median(c.cpu), "s", len(c.cpu), "median user+sys of the program per iteration")
	r.set("peak_rss_mb", median(c.rss), "MB", len(c.rss), "median over iterations of the program's peak RSS")
	r.setLatency(c.wall, "invocation wall times")
	return nil
}
