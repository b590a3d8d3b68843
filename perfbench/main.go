// Command perfbench is the repository's end-to-end benchmark. It drives
// the programs a user runs, iramsim and iramsimd, built from the same
// checkout, over four workloads that each load a different set of the
// simulator's layers; prints the end-to-end metrics; and checks every
// output. With -trace 1 it also decomposes the workload into calls on
// each layer's public functions, times them as spans from outside the
// program, and reports per-layer metrics plus a Chrome trace-event
// file. See README.md for the workloads, the metrics, and the
// layer-to-metric map.
//
// Run it through run.sh, which builds everything first:
//
//	bash perfbench/run.sh --workload paper-live --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// benchSpec is the part of BENCHMARK.json the harness reads: the
// metric names and units the last output line carries. The end-to-end
// list is what a --trace 0 run prints, the per-layer list what a
// --trace 1 run prints; every workload reports all of them. The other
// end-to-end metrics (peak_rss_mb, latency_tail_ms, error_rate and each
// workload's own throughput or accuracy) are printed and stored in the
// result file but not gated: README.md says why.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadSpec reads BENCHMARK.json at the repository root.
func loadSpec(repo string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(repo, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, errors.New("BENCHMARK.json names no end-to-end or per-layer metrics")
	}
	return &s, nil
}

// list returns the metrics a run with or without tracing reports.
func (s *benchSpec) list(trace bool) []specMetric {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// unit returns the unit BENCHMARK.json gives a per-layer metric.
func (s *benchSpec) unit(name string) string {
	for _, m := range s.PerLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

// size selects the workload scale: full for measurement, tiny for the
// benchmark's own tests.
type size int

const (
	full size = iota
	tiny
)

// env is one benchmark invocation's configuration and scratch space.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	size     size
	bin      string // directory holding the iramsim and iramsimd binaries
	repo     string // repository root (testdata, golden files)
	out      string // build/results root inside the checkout
	work     string // this invocation's scratch directory, removed at exit
	setups   int    // set-ups timed for setup_s
	minIters int    // timed iterations run even when --seconds is short
	spec     *benchSpec
}

func (e *env) iramsim() string  { return filepath.Join(e.bin, "iramsim") }
func (e *env) iramsimd() string { return filepath.Join(e.bin, "iramsimd") }

// dir returns a fresh, empty scratch subdirectory.
func (e *env) dir(name string) (string, error) {
	d := filepath.Join(e.work, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// report is one workload run's outcome.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]metric  `json:"metrics"`
	Layers    map[string]metric  `json:"layers,omitempty"`
	SelfTime  map[string]float64 `json:"layer_self_s,omitempty"`
	Digest    string             `json:"output_digest"`
	Host      map[string]string  `json:"host"`
	spec      *benchSpec
}

func newReport(e *env) *report {
	return &report{Workload: e.workload, Seed: e.seed, Trace: e.trace,
		Metrics: map[string]metric{}, Layers: map[string]metric{}, spec: e.spec}
}

// op counts one attempted operation, and a failure when err is non-nil;
// the first twenty failures are kept for the report.
func (r *report) op(err error) {
	r.Attempted++
	if err == nil {
		return
	}
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, err.Error())
	}
}

func (r *report) set(name string, v float64, unit string, n int, note string) {
	r.Metrics[name] = metric{Value: v, Unit: unit, N: n, Note: note}
}

func (r *report) layer(name string, v float64, n int, note string) {
	r.Layers[name] = metric{Value: v, Unit: r.spec.unit(name), N: n, Note: note}
}

// setLatency records latency_p50_ms and latency_tail_ms from per-op
// latencies in seconds, stating which percentile the tail is.
func (r *report) setLatency(secs []float64, what string) {
	ms := make([]float64, len(secs))
	for i, s := range secs {
		ms[i] = s * 1e3
	}
	r.set("latency_p50_ms", median(ms), "ms", len(ms), what)
	v, p, n := tail(ms)
	r.set("latency_tail_ms", v, "ms", n, fmt.Sprintf("p%.1f of %s", p, what))
}

// digest hashes output bytes for cross-iteration and cross-commit
// comparison.
func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:8])
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(e *env, r *report) error{
	"paper-live":         paperLive,
	"designspace-replay": designspaceReplay,
	"splash-mp":          splashMP,
	"daemon-mix":         daemonMix,
}

func main() {
	e := &env{setups: 3, minIters: 3}
	flag.StringVar(&e.workload, "workload", "", "workload: paper-live, designspace-replay, splash-mp, daemon-mix")
	flag.Int64Var(&e.seed, "seed", 1, "workload seed")
	secs := flag.Float64("seconds", 20, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&e.bin, "bin", "", "directory holding the built iramsim and iramsimd")
	flag.StringVar(&e.out, "out", ".bench_build", "directory for scratch files and results")
	flag.StringVar(&e.repo, "repo", ".", "repository root")
	flag.Parse()
	e.seconds = time.Duration(*secs * float64(time.Second))
	e.trace = *traceFlag != 0

	r, err := run(e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := emit(e, r, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run validates the environment, runs one workload, and writes its
// result file (and, when traced, its trace-event file).
func run(e *env) (*report, error) {
	fn, ok := workloads[e.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", e.workload)
	}
	for _, b := range []string{e.iramsim(), e.iramsimd()} {
		if _, err := os.Stat(b); err != nil {
			return nil, fmt.Errorf("program not built: %w", err)
		}
	}
	if _, err := os.Stat(filepath.Join(e.repo, "testdata", "full_results.txt")); err != nil {
		return nil, fmt.Errorf("golden results missing: %w", err)
	}
	var err error
	if e.spec, err = loadSpec(e.repo); err != nil {
		return nil, err
	}
	if e.out, err = filepath.Abs(e.out); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return nil, err
	}
	e.work, err = os.MkdirTemp(e.out, "work-"+e.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.work)

	r := newReport(e)
	r.Host = hostFacts(e.repo)
	if err := fn(e, r); err != nil {
		return nil, err
	}
	if e.trace {
		for _, m := range e.spec.PerLayer {
			if _, ok := r.Layers[m.Name]; !ok {
				r.layer(m.Name, 0, 0, "layer does no work on this workload")
			}
		}
	}
	errRate := 0.0
	if r.Attempted > 0 {
		errRate = float64(r.Failed) / float64(r.Attempted)
	}
	r.set("error_rate", errRate, "ratio", r.Attempted, "failed / attempted operations")
	return r, writeResult(e, r)
}

// writeResult stores the full report under the results directory.
func writeResult(e *env, r *report) error {
	dir := filepath.Join(e.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.json", e.workload, e.seed, e.trace)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// emit prints every metric with its unit and sample count, then the
// one-line JSON result the benchmark contract asks for, last.
func emit(e *env, r *report, w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %s = %s\n", r.Workload, n, r.Metrics[n])
	}
	if e.trace {
		for _, m := range e.spec.PerLayer {
			fmt.Fprintf(w, "%s %s = %s\n", r.Workload, m.Name, r.Layers[m.Name])
		}
	}
	fmt.Fprintf(w, "%s output digest %s; attempted %d, failed %d\n", r.Workload, r.Digest, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%s FAILURE: %s\n", r.Workload, f)
	}

	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]val{}
	src := r.Metrics
	if e.trace {
		src = r.Layers
	}
	for _, want := range e.spec.list(e.trace) {
		m, ok := src[want.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", want.Name)
		}
		if m.Unit != want.Unit {
			return fmt.Errorf("metric %s measured in %q, BENCHMARK.json says %q", want.Name, m.Unit, want.Unit)
		}
		out[want.Name] = val{m.Value, m.Unit}
	}
	line, err := json.Marshal(map[string]interface{}{
		"correct":   r.Failed == 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// hostFacts records what a result depends on besides the code.
func hostFacts(repo string) map[string]string {
	h := map[string]string{
		"go":         runtime.Version(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     "unknown",
	}
	if b, err := exec.Command("git", "-C", repo, "rev-parse", "HEAD").Output(); err == nil {
		h["commit"] = strings.TrimSpace(string(b))
	}
	// A checkout without git history is identified by its sources.
	if d, err := sourceDigest(repo); err == nil {
		h["source_sha256"] = d
	}
	return h
}

// sourceDigest hashes every Go source and go.mod file under repo,
// skipping hidden directories such as .git and .bench_build.
func sourceDigest(repo string) (string, error) {
	hash := sha256.New()
	err := filepath.WalkDir(repo, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != repo && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(repo, path)
		fmt.Fprintf(hash, "%s %d\n", rel, len(b))
		hash.Write(b)
		return nil
	})
	return hex.EncodeToString(hash.Sum(nil)[:16]), err
}

// errMismatch marks an output-check failure.
var errMismatch = errors.New("output mismatch")

// mismatch builds an errMismatch-wrapping error.
func mismatch(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", errMismatch, fmt.Sprintf(format, args...))
}
