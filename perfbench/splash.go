package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/splash"
)

// splashRequest runs Figures 13-17 at 1 and 4 processors on the
// reduced SPLASH data set, in a figure order drawn from the seed (the
// simulator takes no seed on this path, so the order is the input the
// seed varies; the work is the same in every order).
func splashRequest(e *env) runner.Request {
	figs := []string{"fig13", "fig14", "fig15", "fig16", "fig17"}
	rng := rand.New(rand.NewSource(e.seed))
	rng.Shuffle(len(figs), func(i, j int) { figs[i], figs[j] = figs[j], figs[i] })
	req := runner.Request{Experiments: figs, Seed: e.seed, Quick: true, Procs: []int{1, 4}}
	if e.size == tiny {
		req.Procs = []int{1, 2}
	}
	return req
}

func splashArgs(req runner.Request, workers int, cache string) []string {
	a := append(fidelityArgs(req), "-json", "-procs", intList(req.Procs), "-j", fmt.Sprint(workers))
	if cache == "" {
		a = append(a, "-no-result-cache")
	} else {
		a = append(a, "-result-cache", cache)
	}
	return append(a, req.Experiments...)
}

// splashMP times the SPLASH multiprocessor figures. Set-up runs the
// same request serially (-j 1, no cache); every timed -j 2 iteration
// must print the same bytes.
func splashMP(e *env, r *report) error {
	req := splashRequest(e)
	ref, err := timeSetups(e, r, func(int) (string, error) {
		run, err := runCLI(e.work, e.iramsim(), splashArgs(req, 1, "")...)
		return digest(run.stdout), err
	}, nil)
	if err != nil {
		return err
	}
	var st cliStats
	err = timedLoop(e, func(i int) error {
		dir, err := e.dir(fmt.Sprintf("cache-%d", i%2))
		if err != nil {
			return err
		}
		run, err := runCLI(e.work, e.iramsim(), splashArgs(req, 2, dir)...)
		st.add(r, run, err)
		return nil
	})
	if err != nil {
		return err
	}
	if err := st.report(r); err != nil {
		return err
	}
	r.op(sameOutput("serial (-j 1) set-up run", st.first, ref))
	exps, err := decodeExperiments(st.first)
	if err != nil {
		return err
	}
	var cycles uint64
	points := 0
	for _, raw := range exps {
		var res experiments.SplashResult
		if err := json.Unmarshal(raw, &res); err != nil {
			return err
		}
		for _, p := range res.Points {
			cycles += p.Cycles
			points++
		}
	}
	r.set("sim_cycles_per_s", float64(cycles)/r.Metrics["run_s"].Value, "1/s", len(st.wall),
		fmt.Sprintf("%d simulated cycles over %d points / run_s", cycles, points))
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
	opts, err := req.Options()
	if err != nil {
		return err
	}
	roots, err := decompose(rec, "decompose splash-mp", func(root int) error {
		return decomposeSplash(rec, root, opts, req.Experiments, in.results, r)
	})
	if err != nil {
		return err
	}
	return finishTrace(e, r, rec, roots, r.Metrics["cpu_s"].Value, "untraced cpu_s",
		in.wall.Seconds(), r.Metrics["run_s"].Value, inProcessPath)
}

// decomposeSplash runs every (benchmark, processors, configuration)
// point of the figures through splash.Benchmark.Run and checks its
// simulated cycles against the figure's point.
func decomposeSplash(rec *recorder, root int, opts experiments.Options, figs []string, res map[string]interface{}, r *report) error {
	sz := splash.Full()
	if opts.MPQuick {
		sz = splash.Quick()
	}
	prop := opts.Device()
	var accesses, ops, parks int64
	var secs float64
	runs := 0
	for _, fig := range figs {
		fr, ok := res[fig].(*experiments.SplashResult)
		if !ok {
			return fmt.Errorf("runner.Run returned no %s result", fig)
		}
		b, err := splash.ByName(fr.Bench)
		if err != nil {
			return err
		}
		for _, p := range fr.Points {
			var got uint64
			d := rec.timeSpan("mpsim", fmt.Sprintf("%s p=%d %v", fr.Bench, p.Procs, p.Config), root, 0, func() {
				m := coherence.NewConfiguredMachineDevices(p.Config, p.Procs,
					uint64(prop.CoherenceUnitBytes), prop, core.Reference())
				res := b.RunMachine(p.Procs, m, sz)
				got = res.Cycles
				accesses += res.Accesses
				ops += res.Accesses + res.LockOps + res.Barriers
				parks += res.Coord.AwaitParks
			})
			secs += d.Seconds()
			runs++
			if got != p.Cycles {
				r.op(mismatch("%s p=%d %v: %d cycles, figure has %d", fr.Bench, p.Procs, p.Config, got, p.Cycles))
			} else {
				r.op(nil)
			}
		}
	}
	r.layer("mpsim.accesses_per_s", float64(accesses)/secs, runs, "splash.Benchmark runs, serial")
	r.layer("mpsim.park_share", float64(parks)/float64(ops), runs, "Coord.AwaitParks / (accesses + lock ops + barriers)")
	return nil
}
