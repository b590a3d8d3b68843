package main

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// capture is a trace sink that keeps a reference stream in memory, in
// fixed-size chunks, and tallies it.
type capture struct {
	chunks [][]trace.Ref
	spare  [][]trace.Ref // emptied chunks kept for the next stream
	counts trace.Counts
}

const chunkLen = 1 << 16

func (c *capture) Ref(r trace.Ref) { c.Refs([]trace.Ref{r}) }

func (c *capture) Refs(rs []trace.Ref) {
	c.counts.Refs(rs)
	for len(rs) > 0 {
		n := len(c.chunks)
		if n == 0 || len(c.chunks[n-1]) == chunkLen {
			var ch []trace.Ref
			if k := len(c.spare); k > 0 {
				ch, c.spare = c.spare[k-1][:0], c.spare[:k-1]
			} else {
				ch = make([]trace.Ref, 0, chunkLen)
			}
			c.chunks = append(c.chunks, ch)
			n++
		}
		last := c.chunks[n-1]
		k := min(len(rs), chunkLen-len(last))
		c.chunks[n-1] = append(last, rs[:k]...)
		rs = rs[k:]
	}
}

// reset empties the capture, keeping its chunks for reuse.
func (c *capture) reset() {
	c.spare = append(c.spare, c.chunks...)
	c.chunks = nil
	c.counts = trace.Counts{}
}

// replay feeds the captured stream to a batch sink.
func (c *capture) replay(s trace.BatchSink) {
	for _, ch := range c.chunks {
		s.Refs(ch)
	}
}

// uniTotals accumulates the uniprocessor layers' work and time.
type uniTotals struct {
	buildS, allocMB float64
	builds          int
	instr           int64
	vmS             float64
	refs            int64
	cacheS          float64
	gspn            gspnTally
}

// gspnTally accumulates timed cpumodel.Evaluate calls.
type gspnTally struct {
	ms    []float64
	secs  float64
	instr int64
}

// evaluate times one cpumodel.Evaluate call as a gspn span.
func (g *gspnTally) evaluate(rec *recorder, parent int, name string, cfg cpumodel.SystemConfig,
	rates cpumodel.AppRates, instructions, seed int64) (cpumodel.Result, error) {
	var res cpumodel.Result
	var err error
	d := rec.timeSpan("gspn", name, parent, 0, func() { res, err = cpumodel.Evaluate(cfg, rates, instructions, seed) })
	g.ms = append(g.ms, d.Seconds()*1e3)
	g.secs += d.Seconds()
	g.instr += res.Instructions
	return res, err
}

// report sets the gspn per-layer metrics, when there were evaluations.
func (g *gspnTally) report(r *report) {
	if len(g.ms) == 0 {
		return
	}
	r.layer("gspn.evals", float64(len(g.ms)), len(g.ms), "cpumodel.Evaluate calls")
	r.layer("gspn.instr_per_s", float64(g.instr)/g.secs, len(g.ms), "GSPN-simulated instructions per second")
	r.layer("gspn.eval_ms_p50", median(g.ms), len(g.ms), "")
}

// decomposeUni re-does the live cache-measurement path from outside
// the program, one workload at a time: Workload.Build (asm), vm.RunProgram
// into a tallying capture (vm), CacheSet.Refs over the captured batches
// (stackdist/cache), and cpumodel.Evaluate for each CPI table requested
// (gspn). Each result is compared with the experiment results of the
// same request, so the decomposition is shown to do the same work.
func decomposeUni(rec *recorder, parent int, opts experiments.Options, res map[string]interface{}, r *report) (*uniTotals, error) {
	t := &uniTotals{}
	fig7, _ := res["fig7"].(*experiments.Fig7Result)
	fig8, _ := res["fig8"].(*experiments.Fig8Result)
	tables := map[bool]*experiments.CPIResult{}
	if v, ok := res["table3"].(*experiments.CPIResult); ok {
		tables[false] = v
	}
	if v, ok := res["table4"].(*experiments.CPIResult); ok {
		tables[true] = v
	}
	if fig7 == nil || fig8 == nil {
		return nil, fmt.Errorf("decomposition needs fig7 and fig8 results")
	}
	prop, ref := opts.Device(), core.Reference()
	cfg := cpumodel.ConfigFor(prop)
	c := &capture{}
	var ms runtime.MemStats
	for wi, w := range workload.All() {
		budget := opts.Budget
		if budget <= 0 {
			budget = w.Budget
		}
		var prog *isa.Program
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		d := rec.timeSpan("asm", "Build "+w.Name, parent, 0, func() { prog = w.Build() })
		runtime.ReadMemStats(&ms)
		t.allocMB += float64(ms.TotalAlloc-before) / (1 << 20)
		t.buildS += d.Seconds()
		t.builds++

		c.reset()
		var cpu *vm.CPU
		var err error
		d = rec.timeSpan("vm", "RunProgram "+w.Name, parent, 0, func() { cpu, err = vm.RunProgram(prog, c, budget) })
		if err != nil {
			return nil, fmt.Errorf("vm %s: %w", w.Name, err)
		}
		t.instr += cpu.Instructions
		t.vmS += d.Seconds()

		cs := workload.NewCacheSetFor(prop, ref)
		d = rec.timeSpan("cacheset", "CacheSet.Refs "+w.Name, parent, 0, func() { c.replay(cs) })
		t.refs += c.counts.Total()
		t.cacheS += d.Seconds()
		m := &workload.Measurement{Workload: w, Caches: cs, Instr: cpu.Instructions}

		r.op(checkFigRows(m, fig7.Rows[wi], fig8.Rows[wi]))

		for victim, tab := range tables {
			row, ok := cpiRowFor(tab, w.Name)
			if !ok {
				continue
			}
			g, err := t.gspn.evaluate(rec, parent, fmt.Sprintf("Evaluate %s victim=%v", w.Name, victim),
				cfg, m.Rates(true, victim), opts.GSPNInstr, opts.Seed)
			if err != nil {
				return nil, fmt.Errorf("gspn %s: %w", w.Name, err)
			}
			if g.TotalCPI != row.TotalCPI || g.MemCPI != row.MemCPI {
				r.op(mismatch("Evaluate %s victim=%v: CPI %v/%v, table has %v/%v",
					w.Name, victim, g.TotalCPI, g.MemCPI, row.TotalCPI, row.MemCPI))
			} else {
				r.op(nil)
			}
		}
	}
	return t, nil
}

// report sets the uniprocessor layers' per-layer metrics.
func (t *uniTotals) report(r *report) {
	r.layer("asm.build_s", t.buildS, t.builds, "summed Workload.Build time")
	r.layer("asm.alloc_mb", t.allocMB, t.builds, "bytes allocated by Workload.Build")
	r.layer("vm.instr_per_s", float64(t.instr)/t.vmS, t.builds, fmt.Sprintf("%d instructions", t.instr))
	r.layer("cacheset.refs_per_s", float64(t.refs)/t.cacheS, t.builds, fmt.Sprintf("%d references", t.refs))
	t.gspn.report(r)
}

// checkFigRows compares one workload's CacheSet statistics with its
// Figure 7 and Figure 8 rows.
func checkFigRows(m *workload.Measurement, f7 experiments.Fig7Row, f8 experiments.Fig8Row) error {
	cs := m.Caches
	if f7.Bench != m.Workload.Name || f8.Bench != m.Workload.Name {
		return mismatch("row order: fig7 %s, fig8 %s, workload %s", f7.Bench, f8.Bench, m.Workload.Name)
	}
	if got := cs.PropIStats().Ifetch.Percent(); got != f7.Proposed {
		return mismatch("%s proposed I-miss %v, fig7 has %v", f7.Bench, got, f7.Proposed)
	}
	for _, kb := range workload.ConvISizesKB {
		if got := cs.ConvIStats(kb).Ifetch.Percent(); got != f7.Conv[kb] {
			return mismatch("%s conv %dKB I-miss %v, fig7 has %v", f7.Bench, kb, got, f7.Conv[kb])
		}
	}
	pd, vd := cs.PropDStats(), cs.PropDVictimStats()
	if pd.Load.Percent() != f8.PropLoad || pd.Store.Percent() != f8.PropStore ||
		vd.Load.Percent() != f8.VicLoad || vd.Store.Percent() != f8.VicStore {
		return mismatch("%s proposed D-miss differs from fig8", f8.Bench)
	}
	for _, kb := range workload.ConvDSizesKB {
		if cs.ConvDMStats(kb).Data().Percent() != f8.ConvDM[kb] || cs.Conv2WStats(kb).Data().Percent() != f8.Conv2W[kb] {
			return mismatch("%s conv %dKB D-miss differs from fig8", f8.Bench, kb)
		}
	}
	return nil
}

func cpiRowFor(t *experiments.CPIResult, bench string) (experiments.CPIRow, bool) {
	for _, row := range t.Rows {
		if row.Bench == bench {
			return row, true
		}
	}
	return experiments.CPIRow{}, false
}

// countInstructions executes every workload on the VM into a tally and
// returns the VM-retired instruction total for the budget: the work
// count behind sim_instr_per_s.
func countInstructions(budget int64) (int64, error) {
	var total int64
	for _, w := range workload.All() {
		b := budget
		if b <= 0 {
			b = w.Budget
		}
		var counts trace.Counts
		cpu, err := vm.RunProgram(w.Build(), &counts, b)
		if err != nil {
			return 0, fmt.Errorf("vm %s: %w", w.Name, err)
		}
		total += cpu.Instructions
	}
	return total, nil
}
