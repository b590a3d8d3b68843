package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/resultstore"
	"repro/internal/runner"
)

// runNames renders the named experiments to out through
// runner.RunJobs, the layer iramsim and iramsimd share. cfg carries the
// worker count, output mode and tracer; the metrics registry and result
// cache come from opts, where runner.Run also puts them.
func runNames(names []string, opts experiments.Options, ms *experiments.MeasurementSet, cfg runner.Config, out io.Writer) error {
	cfg.Out = out
	cfg.Obs = opts.Obs
	cfg.ResultCache = opts.ResultCache
	return runner.RunJobs(context.Background(), names, opts, ms, cfg)
}

// cheap experiments exercised through the dispatcher (the heavyweight
// ones are covered by internal/experiments' own tests).
func TestRunDispatcher(t *testing.T) {
	opts := experiments.Quick()
	opts.Budget = 50_000
	opts.GSPNInstr = 2_000
	opts.Procs = []int{1, 2}
	ms := experiments.NewMeasurementSet(opts)
	for _, name := range []string{"cost", "spec", "fabric", "selftest", "table1", "fig13", "fig910", "workloads"} {
		if err := runNames([]string{name}, opts, ms, runner.Config{}, io.Discard); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if err := runNames([]string{"no-such-experiment"}, opts, ms, runner.Config{}, io.Discard); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// quickOpts is the CI-sized configuration the determinism tests sweep.
func quickOpts() experiments.Options {
	opts := experiments.Quick()
	opts.Budget = 50_000
	opts.GSPNInstr = 2_000
	opts.Procs = []int{1, 2}
	return opts
}

// sweepOutput runs a representative experiment mix through the worker
// pool and returns the deterministic stream. A fresh MeasurementSet
// per call makes every run recompute from its seeds.
func sweepOutput(t *testing.T, cfg runner.Config, opts experiments.Options) []byte {
	t.Helper()
	names := []string{"spec", "cost", "table1", "fig7", "fig8", "table3", "realcpi", "fig13", "ablate-scoreboard", "fabric"}
	ms := experiments.NewMeasurementSet(opts)
	var buf bytes.Buffer
	if err := runNames(names, opts, ms, cfg, &buf); err != nil {
		t.Fatalf("runNames(j=%d): %v", cfg.Workers, err)
	}
	return buf.Bytes()
}

// TestSweepDeterminism: the sweep's experiment output is byte-identical
// across worker counts (serial vs parallel) and across repeated
// parallel runs of the same configuration (seed stability), in both
// table and JSON modes.
func TestSweepDeterminism(t *testing.T) {
	opts := quickOpts()
	serial := sweepOutput(t, runner.Config{Workers: 1}, opts)
	if len(serial) == 0 {
		t.Fatal("serial sweep produced no output")
	}
	parallel := sweepOutput(t, runner.Config{Workers: 8}, opts)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("-j 1 and -j 8 output differ:\n--- j1 ---\n%s\n--- j8 ---\n%s", serial, parallel)
	}
	again := sweepOutput(t, runner.Config{Workers: 8}, opts)
	if !bytes.Equal(parallel, again) {
		t.Errorf("two -j 8 runs of the same configuration differ")
	}

	j1 := sweepOutput(t, runner.Config{Workers: 1, JSON: true}, opts)
	j8 := sweepOutput(t, runner.Config{Workers: 8, JSON: true}, opts)
	if !bytes.Equal(j1, j8) {
		t.Errorf("JSON output differs between -j 1 and -j 8")
	}
}

// TestSweepDeterminismWithCache extends the determinism guarantee to
// the result cache: against a shared store, the cold populating run and
// warm reruns at several worker counts must all reproduce the uncached
// stream byte-for-byte, in table and JSON modes.
func TestSweepDeterminismWithCache(t *testing.T) {
	opts := quickOpts()
	baseline := sweepOutput(t, runner.Config{Workers: 4}, opts)

	store, err := resultstore.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts.ResultCache = store
	if cold := sweepOutput(t, runner.Config{Workers: 1}, opts); !bytes.Equal(baseline, cold) {
		t.Errorf("cold cached run differs from uncached baseline:\n--- plain ---\n%s\n--- cold ---\n%s", baseline, cold)
	}
	for _, w := range []int{2, 8} {
		if warm := sweepOutput(t, runner.Config{Workers: w}, opts); !bytes.Equal(baseline, warm) {
			t.Errorf("warm cached run (-j %d) differs from uncached baseline", w)
		}
	}

	plain := quickOpts()
	j1 := sweepOutput(t, runner.Config{Workers: 1, JSON: true}, plain)
	if warm := sweepOutput(t, runner.Config{Workers: 8, JSON: true}, opts); !bytes.Equal(j1, warm) {
		t.Errorf("JSON output differs between uncached and warm cached runs")
	}
}

// TestFastPathMatchesReplayTables: the rendered Figure 7/8 (and
// dependent Table 3) output must be byte-identical whether the
// measurements come from the simulator's single-pass CacheSet (the
// default) or from per-configuration cache replay (replayCaches).
// Together with TestSweepDeterminism above — which runs the fast path —
// this extends the determinism guarantee to cover both measurement
// paths.
func TestFastPathMatchesReplayTables(t *testing.T) {
	opts := quickOpts()
	names := []string{"fig7", "fig8", "table3"}
	render := func(ms *experiments.MeasurementSet) []byte {
		var buf bytes.Buffer
		if err := runNames(names, opts, ms, runner.Config{Workers: 4}, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fast := render(experiments.NewMeasurementSet(opts))
	replay := render(newReplayMeasurementSet(opts))
	if len(fast) == 0 {
		t.Fatal("fast path produced no output")
	}
	if !bytes.Equal(fast, replay) {
		t.Errorf("fast and replay tables differ:\n--- fast ---\n%s\n--- replay ---\n%s", fast, replay)
	}
}

// TestMetricsFlag drives the -metrics/-trace path end to end: a quick
// fig7+fig13 run with a live registry must (a) leave the experiment
// output byte-identical to an uninstrumented run, (b) dump JSON that
// encoding/json parses (no NaN/Inf leaks), and (c) populate the sweep,
// cache, mpsim, and coherence metric families.
func TestMetricsFlag(t *testing.T) {
	names := []string{"fig7", "fig13"}

	plain := quickOpts()
	plainMS := experiments.NewMeasurementSet(plain)
	var plainBuf bytes.Buffer
	if err := runNames(names, plain, plainMS, runner.Config{Workers: 2}, &plainBuf); err != nil {
		t.Fatalf("uninstrumented run: %v", err)
	}

	opts := quickOpts()
	opts.Obs = obs.NewRegistry()
	tracer := obs.NewTracer(1 << 10)
	ms := experiments.NewMeasurementSet(opts)
	var buf bytes.Buffer
	if err := runNames(names, opts, ms, runner.Config{Workers: 2, Trace: tracer}, &buf); err != nil {
		t.Fatalf("instrumented run: %v", err)
	}
	if !bytes.Equal(plainBuf.Bytes(), buf.Bytes()) {
		t.Error("instrumentation changed the experiment output")
	}

	dir := t.TempDir()
	mpath := filepath.Join(dir, "metrics.json")
	if err := writeMetrics(mpath, opts.Obs); err != nil {
		t.Fatalf("writeMetrics: %v", err)
	}
	raw, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var dump map[string]map[string]interface{}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("metrics dump is not valid JSON: %v\n%s", err, raw)
	}
	for _, fam := range []string{"sweep", "cache", "mpsim", "coherence"} {
		if len(dump[fam]) == 0 {
			t.Errorf("metrics dump missing family %q; have %v", fam, dump)
		}
	}
	if v, ok := dump["sweep"]["units_completed"].(float64); !ok || v <= 0 {
		t.Errorf("sweep/units_completed = %v, want > 0", dump["sweep"]["units_completed"])
	}
	if v, ok := dump["mpsim"]["grants"].(float64); !ok || v < 0 {
		t.Errorf("mpsim/grants = %v, want >= 0", dump["mpsim"]["grants"])
	}

	tpath := filepath.Join(dir, "trace.log")
	if err := writeTrace(tpath, tracer); err != nil {
		t.Fatalf("writeTrace: %v", err)
	}
	tr, err := os.ReadFile(tpath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tr), "unit_done") {
		t.Errorf("trace has no unit_done events:\n%s", tr)
	}
	if !strings.Contains(string(tr), "# trace:") {
		t.Errorf("trace missing summary line:\n%s", tr)
	}
}

func TestRunDispatcherJSON(t *testing.T) {
	opts := experiments.Quick()
	opts.Budget = 50_000
	opts.GSPNInstr = 2_000
	opts.Procs = []int{1}
	ms := experiments.NewMeasurementSet(opts)
	for _, name := range []string{"cost", "table1", "fig13"} {
		var buf bytes.Buffer
		if err := runNames([]string{name}, opts, ms, runner.Config{JSON: true}, &buf); err != nil {
			t.Errorf("json %s: %v", name, err)
		}
		// A plain table (cost) renders as a table even in JSON mode.
		if isJSON := json.Valid(buf.Bytes()); isJSON == (name == "cost") {
			t.Errorf("json %s: output JSON=%v:\n%s", name, isJSON, buf.Bytes())
		}
	}
}
