package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// binDir holds iramsim and iramsimd built once for the whole test run.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-bin-")
	if err != nil {
		panic(err)
	}
	for _, cmd := range []string{"iramsim", "iramsimd"} {
		build := exec.Command("go", "build", "-o", filepath.Join(dir, cmd), "./cmd/"+cmd)
		build.Dir = ".."
		if out, err := build.CombinedOutput(); err != nil {
			os.RemoveAll(dir)
			panic(string(out))
		}
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func tinyEnv(t *testing.T, workload string, trace bool) *env {
	return &env{workload: workload, seed: 3, trace: trace, size: tiny,
		bin: binDir, repo: "..", out: t.TempDir(), setups: 2, minIters: 2}
}

// TestWorkloadsTiny runs every workload untraced and traced at a tiny
// size and checks that every named metric is printed with its unit and
// sample count, and that every output check passes.
func TestWorkloadsTiny(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			name, trace := name, trace
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				e := tinyEnv(t, name, trace)
				r, err := run(e)
				if err != nil {
					t.Fatal(err)
				}
				if r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("attempted %d, failed %d: %v", r.Attempted, r.Failed, r.Failures)
				}
				want, src := e.spec.list(trace), r.Metrics
				if trace {
					src = r.Layers
				}
				for _, w := range want {
					m, ok := src[w.Name]
					if !ok || m.Unit != w.Unit {
						t.Errorf("metric %s missing or not in %s: %+v", w.Name, w.Unit, m)
					}
				}
				if !trace && (r.Metrics["run_s"].N < 2 || r.Metrics["run_s"].Value <= 0) {
					t.Errorf("run_s = %+v", r.Metrics["run_s"])
				}
				if trace {
					if _, err := os.Stat(filepath.Join(e.out, "results", name+"-seed3.trace.json")); err != nil {
						t.Errorf("no trace-event file: %v", err)
					}
				}

				f, err := os.CreateTemp(t.TempDir(), "out")
				if err != nil {
					t.Fatal(err)
				}
				if err := emit(e, r, f); err != nil {
					t.Fatal(err)
				}
				out, _ := os.ReadFile(f.Name())
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var last struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the JSON result: %v", err)
				}
				if !last.Correct || len(last.Metrics) != len(want) {
					t.Errorf("result line: correct=%v, %d metrics, want %d", last.Correct, len(last.Metrics), len(want))
				}
				for _, w := range want {
					if !strings.Contains(string(out), w.Name+" = ") || !strings.Contains(string(out), "(n=") {
						t.Errorf("metric %s not printed with its sample count", w.Name)
					}
				}
			})
		}
	}
}

func TestOutputMismatchIsAFailure(t *testing.T) {
	r := newReport(&env{workload: "x"})
	var st cliStats
	st.add(r, cliRun{stdout: []byte("a"), wall: time.Second}, nil)
	st.add(r, cliRun{stdout: []byte("b"), wall: time.Second}, nil)
	if r.Attempted != 2 || r.Failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", r.Attempted, r.Failed)
	}

	golden, err := os.ReadFile("../testdata/full_results.txt")
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(golden, []byte("Figure 7:"))
	j := bytes.Index(golden[i:], []byte("\n\n"))
	section := append([]byte(nil), golden[i:i+j]...)
	if err := checkGolden("..", section, []string{"Figure 7:"}); err != nil {
		t.Fatalf("golden section rejected: %v", err)
	}
	section[len(section)-2] ^= 1 // one flipped byte
	if err := checkGolden("..", section, []string{"Figure 7:"}); !errors.Is(err, errMismatch) {
		t.Fatalf("altered section: err = %v, want a mismatch", err)
	}
}

func TestHTTP429IsAFailure(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
	}))
	defer srv.Close()
	res := doRequest(srv.Client(), srv.URL, []byte(`{}`), nil, 0, 0)
	if !res.rejected || res.err == nil {
		t.Fatalf("429 not reported as a rejected failure: %+v", res)
	}
	r := newReport(&env{workload: "daemon-mix"})
	st := &mixState{warm: map[string]string{}, fresh: map[string]string{}}
	st.record(r, []reqResult{res})
	if r.Failed != 1 || r.Attempted != 1 || st.reject != 1 {
		t.Fatalf("attempted %d failed %d rejected %d, want 1 each", r.Attempted, r.Failed, st.reject)
	}
}

func TestSeedChangesDaemonSequence(t *testing.T) {
	seq := func(seed int64) []string {
		m := newMix(&env{seed: seed}, 2)
		reqs, _ := m.batch(24, 4)
		var out []string
		for _, req := range append(m.warm, reqs...) {
			out = append(out, body(req))
		}
		return out
	}
	if !reflect.DeepEqual(seq(5), seq(5)) {
		t.Fatal("the same seed gave different request sequences")
	}
	if reflect.DeepEqual(seq(5), seq(6)) {
		t.Fatal("different seeds gave the same request sequence")
	}
	m := newMix(&env{seed: 5}, 2)
	warm := map[string]bool{}
	for _, req := range m.warm {
		warm[body(req)] = true
	}
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		reqs, fresh := m.batch(24, 4)
		for k, f := range fresh {
			b := body(reqs[k])
			if f != !warm[b] {
				t.Fatalf("request %s: fresh=%v, but warm=%v", b, f, warm[b])
			}
			if f && seen[b] {
				t.Fatalf("fresh request %s repeated", b)
			}
			seen[b] = true
		}
	}
}

// TestSpecMatchesReports checks the metric lists read from
// BENCHMARK.json against what emit accepts: a unit that disagrees with
// the file is an error, not a silently different metric.
func TestSpecMatchesReports(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	e := &env{workload: "x", spec: spec}
	r := newReport(e)
	for _, m := range spec.EndToEnd {
		r.set(m.Name, 1, m.Unit, 1, "")
	}
	var buf bytes.Buffer
	if err := emit(e, r, &buf); err != nil {
		t.Fatalf("emit with every metric in its unit: %v", err)
	}
	r.set(spec.EndToEnd[0].Name, 1, "furlong", 1, "")
	if err := emit(e, r, &buf); err == nil {
		t.Fatal("emit accepted a unit that BENCHMARK.json does not give")
	}
}

func TestTailAndSelfTime(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	if v, p, n := tail(xs); v != 90 || p != 90 || n != 100 {
		t.Errorf("tail of 1..100 = %v p%v n=%d, want 90 p90 n=100", v, p, n)
	}
	if v, p, _ := tail(xs[:5]); v != 5 || p != 100 {
		t.Errorf("tail of 1..5 = %v p%v, want the maximum", v, p)
	}
	at := func(wall, cpu time.Duration) stamp { return stamp{Wall: wall, CPU: cpu} }
	spans := []span{
		{ID: 1, From: at(0, 0), To: at(10, 20)},
		{ID: 2, Parent: 1, From: at(1, 2), To: at(4, 8)},
		{ID: 3, Parent: 1, From: at(3, 6), To: at(6, 12)},
		{ID: 4, Parent: 1, From: at(8, 16), To: at(9, 18)},
	}
	if self := selfTimes(spans, false); self[1] != 10-6 || self[2] != 3 {
		t.Errorf("wall self times %v, want root 4 (children cover 1..6 and 8..9)", self)
	}
	if self := selfTimes(spans, true); self[1] != 20-12 || self[3] != 6 {
		t.Errorf("CPU self times %v, want root 8 (children cover 2..12 and 16..18)", self)
	}
}
