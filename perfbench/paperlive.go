package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/runner"
)

// paperExperiments are the paper's headline uniprocessor results on the
// default live path: every uniprocessor layer does real work.
var paperExperiments = []string{"fig7", "fig8", "table3", "table4"}

// paperTitles are the output sections of paperExperiments; the Figure 7
// and 8 miss rates do not depend on the Monte-Carlo seed, the CPI
// tables do.
var (
	seedFreeTitles = []string{"Figure 7:", "Figure 8:"}
	seededTitles   = []string{"Table 3:", "Table 4:"}
)

// paperRequest is the workload's timed request: the reduced (-quick)
// fidelity, whose 1.6 s iterations let a 20 s run take a steady median
// where full fidelity's 7.5 s ones would give three samples. Every
// layer still does real work, and asm's share grows, since assembly
// costs the same at any budget.
func paperRequest(e *env) runner.Request {
	req := runner.Request{Experiments: paperExperiments, Seed: e.seed, Quick: true}
	if e.size == tiny {
		req.Budget = 20_000
	}
	return req
}

// intList renders ints as an iramsim comma list.
func intList(v []int) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = strconv.Itoa(x)
	}
	return strings.Join(s, ",")
}

// fidelityArgs renders a request's fidelity as iramsim flags.
func fidelityArgs(req runner.Request) []string {
	args := []string{"-seed", fmt.Sprint(req.Seed)}
	if req.Quick {
		args = append(args, "-quick")
	}
	if req.Budget > 0 {
		args = append(args, "-budget", fmt.Sprint(req.Budget))
	}
	return args
}

// paperLive times `iramsim -json fig7 fig8 table3 table4` with a cold
// result cache per iteration.
func paperLive(e *env, r *report) error {
	req := paperRequest(e)
	opts, err := req.Options()
	if err != nil {
		return err
	}
	instr, err := timeSetups(e, r, func(int) (int64, error) {
		return countInstructions(opts.Budget)
	}, nil)
	if err != nil {
		return err
	}
	argsFor := func(req runner.Request, cache string, json bool) []string {
		a := fidelityArgs(req)
		if json {
			a = append(a, "-json")
		}
		a = append(a, "-j", "2", "-result-cache", cache)
		return append(a, req.Experiments...)
	}

	var st cliStats
	err = timedLoop(e, func(i int) error {
		dir, err := e.dir(fmt.Sprintf("cache-%d", i%2))
		if err != nil {
			return err
		}
		run, err := runCLI(e.work, e.iramsim(), argsFor(req, dir, true)...)
		st.add(r, run, err)
		return nil
	})
	if err != nil {
		return err
	}
	if err := st.report(r); err != nil {
		return err
	}
	runS := r.Metrics["run_s"].Value
	r.set("sim_instr_per_s", float64(instr)/runS, "1/s", len(st.wall),
		fmt.Sprintf("%d VM-retired instructions / run_s", instr))

	if err := paperCheck(e, r, req, argsFor); err != nil {
		return err
	}
	if !e.trace {
		return nil
	}

	rec := newRecorder()
	in, err := runInProcess(e, r, rec, req, true, "")
	if err != nil {
		return err
	}
	r.op(sameOutput("in-process runner.Run", in.out, st.want))
	if err := timeResultStore(e, r, rec, in.cache); err != nil {
		return err
	}
	roots, err := decompose(rec, "decompose paper-live", func(root int) error {
		tot, err := decomposeUni(rec, root, opts, in.results, r)
		if err == nil {
			tot.report(r)
		}
		return err
	})
	if err != nil {
		return err
	}
	return finishTrace(e, r, rec, roots, r.Metrics["cpu_s"].Value, "untraced cpu_s",
		in.wall.Seconds(), r.Metrics["run_s"].Value, inProcessPath)
}

// paperCheck makes one untimed run at full fidelity, the paper's own,
// for Table 4's error against the published CPIs; and renders the same
// results as tables (warm cache, so that run only decodes and renders),
// which must match the golden transcript.
func paperCheck(e *env, r *report, req runner.Request, argsFor func(runner.Request, string, bool) []string) error {
	if e.size == full {
		req.Quick = false
	}
	dir, err := e.dir("cache-full")
	if err != nil {
		return err
	}
	run, err := runCLI(e.work, e.iramsim(), argsFor(req, dir, true)...)
	if err != nil {
		r.op(err)
		return nil
	}
	exps, err := decodeExperiments(run.stdout)
	if err != nil {
		return err
	}
	cpiErr, n, err := cpiErrPct(exps["table4"])
	if err != nil {
		return err
	}
	r.set("paper_cpi_err_pct", cpiErr, "%", n, "mean |TotalCPI - PaperTotalCPI| / PaperTotalCPI over Table 4")
	if e.size == tiny {
		return nil
	}
	text, err := runCLI(e.work, e.iramsim(), argsFor(req, dir, false)...)
	if err != nil {
		r.op(err)
		return nil
	}
	titles := seedFreeTitles
	if req.Seed == 1 {
		titles = append(append([]string(nil), titles...), seededTitles...)
	}
	r.op(checkGolden(e.repo, text.stdout, titles))
	return nil
}

// inProcessPath describes the traced path the CLI workloads compare
// with their untraced run_s.
const inProcessPath = "in-process runner.Run with a span per unit, vs the CLI"

// sameOutput checks in-process output against the CLI's digest.
func sameOutput(what string, out []byte, want string) error {
	if d := digest(out); d != want {
		return mismatch("%s output digest %s, CLI printed %s", what, d, want)
	}
	return nil
}
