package main

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"strconv"

	"repro/internal/cpumodel"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// designRequest is the design-space search: a lattice above the
// 64-row GSPN threshold, so screening decides which rows get a GSPN
// evaluation. 4..16:4 banks x 3 columns x 3 ways x 2 victim settings
// is 72 points, 144 (point, bench) rows. It runs at the reduced
// (-quick) fidelity, whose 0.9 s iterations let a 20 s run take a
// steady median; full fidelity takes 4.5 s.
func designRequest(e *env) runner.Request {
	req := runner.Request{
		Experiments: []string{"designspace"},
		Seed:        e.seed,
		Quick:       true,
		DSBanks:     []int{4, 8, 12, 16},
		DSColumns:   []int{256, 512, 1024},
		DSWays:      []int{1, 2, 4},
		DSVictims:   []int{0, 16},
	}
	if e.size == tiny {
		req.Budget = 20_000
		req.DSBanks, req.DSColumns, req.DSWays = []int{4, 8}, []int{256, 512}, []int{1, 2}
	}
	return req
}

// designArgs renders the request as iramsim flags.
func designArgs(req runner.Request) []string {
	return append(fidelityArgs(req), "-ds-banks", intList(req.DSBanks), "-ds-columns", intList(req.DSColumns),
		"-ds-ways", intList(req.DSWays), "-ds-victims", intList(req.DSVictims))
}

var accountingRE = regexp.MustCompile(`accounting: lattice=(\d+) evaluated=(\d+) families=(\d+) benches=(\d+) passes=(\d+)`)

// designspaceReplay times the design-space search replaying recorded
// traces, with a cold result cache per iteration. Set-up records the
// traces; the VM and assembler do no work in the timed iterations.
func designspaceReplay(e *env, r *report) error {
	req := designRequest(e)
	opts, err := req.Options()
	if err != nil {
		return err
	}
	// Recording through a one-point search writes exactly the two
	// probe benches' traces.
	recordReq := req
	recordReq.DSBanks, recordReq.DSColumns, recordReq.DSWays, recordReq.DSVictims = []int{4}, []int{256}, []int{1}, []int{0}
	traces, err := timeSetups(e, r, func(k int) (string, error) {
		dir, err := e.dir(fmt.Sprintf("traces-%d", k))
		if err != nil {
			return "", err
		}
		args := append(designArgs(recordReq), "-j", "2", "-no-result-cache", "-record", dir, "designspace")
		_, err = runCLI(e.work, e.iramsim(), args...)
		return dir, err
	}, func(dir string) { os.RemoveAll(dir) })
	if err != nil {
		return err
	}

	argsFor := func(cache string) []string {
		return append(designArgs(req), "-j", "2", "-result-cache", cache, "-trace-dir", traces, "designspace")
	}
	var st cliStats
	err = timedLoop(e, func(i int) error {
		dir, err := e.dir(fmt.Sprintf("cache-%d", i%2))
		if err != nil {
			return err
		}
		run, err := runCLI(e.work, e.iramsim(), argsFor(dir)...)
		st.add(r, run, err)
		return nil
	})
	if err != nil {
		return err
	}
	if err := st.report(r); err != nil {
		return err
	}
	m := accountingRE.FindSubmatch(st.first)
	if m == nil {
		return fmt.Errorf("designspace output has no accounting note")
	}
	evaluated, _ := strconv.Atoi(string(m[2]))
	benches, _ := strconv.Atoi(string(m[4]))
	r.set("points_per_s", float64(evaluated*benches)/r.Metrics["run_s"].Value, "1/s", len(st.wall),
		fmt.Sprintf("%d evaluated (point, bench) pairs / run_s", evaluated*benches))

	// Replay must print what live generation prints.
	if !e.trace {
		dir, err := e.dir("cache-live")
		if err != nil {
			return err
		}
		live := append(designArgs(req), "-j", "2", "-result-cache", dir, "designspace")
		run, err := runCLI(e.work, e.iramsim(), live...)
		if err == nil {
			err = sameOutput("live (unrecorded) designspace", run.stdout, st.want)
		}
		r.op(err)
		return nil
	}

	rec := newRecorder()
	in, err := runInProcess(e, r, rec, req, false, traces)
	if err != nil {
		return err
	}
	r.op(sameOutput("in-process runner.Run", in.out, st.want))
	if err := timeResultStore(e, r, rec, in.cache); err != nil {
		return err
	}
	res, ok := in.results["designspace"].(*experiments.DesignspaceResult)
	if !ok {
		return fmt.Errorf("runner.Run returned no designspace result")
	}
	roots, err := decompose(rec, "decompose designspace-replay", func(root int) error {
		probes := rec.begin("bench", "trace codec probes", 0, 0)
		defer rec.end(probes)
		return decomposeDesign(rec, root, probes, opts, traces, res, r)
	})
	if err != nil {
		return err
	}
	return finishTrace(e, r, rec, roots, r.Metrics["cpu_s"].Value, "untraced cpu_s",
		in.wall.Seconds(), r.Metrics["run_s"].Value, inProcessPath)
}

// decomposeDesign re-does the search's measurement from outside, under
// root: per probe bench, tracestore.Store.ReplayTo from the recorded
// directory, FamilyCacheSet.Refs per column family, and
// cpumodel.Evaluate for every row the search gave a CPI. Miss rates and
// CPIs must equal the search's rows. Trace decode and encode in memory
// are probes of the trace layer that the search does not make, so they
// hang under probes instead.
func decomposeDesign(rec *recorder, root, probes int, opts experiments.Options, traceDir string, res *experiments.DesignspaceResult, r *report) error {
	store, err := tracestore.NewStore(traceDir)
	if err != nil {
		return err
	}
	var replayRefs, decRefs, encRefs, encBytes, famRefs int64
	var replayS, decS, encS, famS float64
	var gspn gspnTally
	c := &capture{}
	for _, bench := range res.Benches {
		w, err := workload.ByName(bench)
		if err != nil {
			return err
		}
		budget := opts.Budget
		if budget <= 0 {
			budget = w.Budget
		}
		key := tracestore.Key{Workload: bench, Budget: budget, Seed: opts.Seed}

		c.reset()
		d := rec.timeSpan("tracestore", "ReplayTo "+bench, root, 0, func() { _, err = store.ReplayTo(key, c) })
		if err != nil {
			return fmt.Errorf("tracestore replay %s: %w", bench, err)
		}
		replayRefs += c.counts.Total()
		replayS += d.Seconds()

		file, err := os.ReadFile(store.Path(key))
		if err != nil {
			return err
		}
		var n int64
		d = rec.timeSpan("trace", "Reader.ReplayBatch "+bench, probes, 0, func() {
			var rd *trace.Reader
			if rd, err = trace.NewReader(bytes.NewReader(file)); err == nil {
				var counts trace.Counts
				n, err = rd.ReplayBatch(&counts, nil)
			}
		})
		if err != nil {
			return fmt.Errorf("trace decode %s: %w", bench, err)
		}
		decRefs += n
		decS += d.Seconds()

		var enc bytes.Buffer
		d = rec.timeSpan("trace", "Writer.Refs "+bench, probes, 0, func() {
			var tw *trace.Writer
			if tw, err = trace.NewWriter(&enc); err == nil {
				for _, ch := range c.chunks {
					tw.Refs(ch)
				}
				err = tw.Close()
			}
		})
		if err != nil {
			return fmt.Errorf("trace encode %s: %w", bench, err)
		}
		encRefs += c.counts.Total()
		encBytes += int64(enc.Len())
		encS += d.Seconds()

		byColumn := map[int][]workload.FamilyPoint{}
		var columns []int
		for _, p := range res.Points {
			if _, ok := byColumn[p.ColumnBytes]; !ok {
				columns = append(columns, p.ColumnBytes)
			}
			byColumn[p.ColumnBytes] = append(byColumn[p.ColumnBytes],
				workload.FamilyPoint{Banks: p.Banks, Ways: p.Ways, VictimEntries: p.VictimEntries})
		}
		for _, col := range columns {
			f := workload.NewFamilyCacheSet(col, byColumn[col])
			d = rec.timeSpan("family", fmt.Sprintf("FamilyCacheSet.Refs %s col=%d", bench, col), root, 0, func() { c.replay(f) })
			famRefs += c.counts.Total()
			famS += d.Seconds()
			fm := &workload.FamilyMeasurement{Workload: w, Set: f, Instr: c.counts.Ifetches}
			for _, row := range res.Rows {
				p := row.Point
				if row.Bench != bench || p.ColumnBytes != col {
					continue
				}
				fp := workload.FamilyPoint{Banks: p.Banks, Ways: p.Ways, VictimEntries: p.VictimEntries}
				dm := f.DStats(p.Banks, p.Ways)
				if p.VictimEntries > 0 {
					dm = f.DVictimStats(fp)
				}
				if f.IStats(p.Banks).Ifetch.Percent() != row.IMissPct || dm.Data().Percent() != row.DMissPct {
					r.op(mismatch("%s %v: family miss rates differ from the search row", bench, p))
					continue
				}
				r.op(nil)
				if !row.HasCPI {
					continue
				}
				dev := opts.Device().WithOrganisation(p.Banks, p.ColumnBytes, p.VictimEntries, p.Ways)
				g, err := gspn.evaluate(rec, root, fmt.Sprintf("Evaluate %s %v", bench, p),
					cpumodel.ConfigFor(dev), fm.Rates(fp), opts.GSPNInstr, opts.Seed)
				if err != nil {
					return fmt.Errorf("gspn %s %v: %w", bench, p, err)
				}
				if g.TotalCPI != row.TotalCPI || g.MemCPI != row.MemCPI {
					r.op(mismatch("Evaluate %s %v: CPI %v, search row has %v", bench, p, g.TotalCPI, row.TotalCPI))
				} else {
					r.op(nil)
				}
			}
		}
	}
	r.layer("tracestore.replay_refs_per_s", float64(replayRefs)/replayS, len(res.Benches), "Store.ReplayTo from the recorded directory")
	r.layer("trace.decode_refs_per_s", float64(decRefs)/decS, len(res.Benches), "Reader.ReplayBatch on the trace bytes in memory")
	r.layer("trace.encode_refs_per_s", float64(encRefs)/encS, len(res.Benches), "Writer.Refs into memory")
	r.layer("trace.bytes_per_ref", float64(encBytes)/float64(encRefs), len(res.Benches), "encoded trace size")
	r.layer("family.refs_per_s", float64(famRefs)/famS, len(res.Benches), "FamilyCacheSet.Refs, one pass per (column, bench)")
	gspn.report(r)
	return nil
}
