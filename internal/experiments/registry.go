package experiments

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/report"
	"repro/internal/selftest"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// experiment is one registry entry: a name, whether `iramsim all` runs
// it, and the builder that decomposes it into a sweep job.
type experiment struct {
	name  string
	inAll bool
	build func(o Options, ms *MeasurementSet) sweep.Job
}

// registry is every runnable experiment, in the order `iramsim all`
// runs its inAll entries and the CLI usage lists them.
var registry = []experiment{
	{"spec", true, specJob},
	{"workloads", false, workloadsJob},
	{"cost", true, func(Options, *MeasurementSet) sweep.Job {
		return sweep.Single("cost", func() (interface{}, error) { return Cost(), nil })
	}},
	{"table1", true, table1Job},
	{"fig2", true, fig2Job},
	{"fig7", true, fig7Job},
	{"fig8", true, fig8Job},
	{"fig910", false, fig910Job},
	{"fig11", true, fig11Job},
	{"fig12", true, fig12Job},
	{"table3", true, func(o Options, ms *MeasurementSet) sweep.Job { return table34Job(o, ms, false) }},
	{"table4", true, func(o Options, ms *MeasurementSet) sweep.Job { return table34Job(o, ms, true) }},
	{"banks", true, banksJob},
	{"mattson", true, mattsonJob},
	{"realcpi", true, realCPIJob},
	{"fig13", true, splashFigureJob("fig13", "LU")},
	{"fig14", true, splashFigureJob("fig14", "MP3D")},
	{"fig15", true, splashFigureJob("fig15", "OCEAN")},
	{"fig16", true, splashFigureJob("fig16", "WATER")},
	{"fig17", true, splashFigureJob("fig17", "PTHOR")},
	{"ablate-linesize", true, ablateLineSizeJob},
	{"ablate-victim", true, ablateVictimSizeJob},
	{"ablate-unit", true, ablateCoherenceUnitJob},
	{"ablate-scoreboard", true, ablateScoreboardJob},
	{"ablate-inc", true, ablateINCAssociativityJob},
	{"ablate-engines", true, ablateEnginesJob},
	{"ablate-jouppi", true, ablateJouppiJob},
	{"scoma", true, scomaJob},
	{"fabric", true, func(Options, *MeasurementSet) sweep.Job {
		return sweep.Single("fabric", func() (interface{}, error) { return Fabric() })
	}},
	{"designspace", false, designspaceJob},
	{"selftest", true, selftestJob},
}

// Names lists every registered experiment in registry order.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// AllNames lists the experiments `iramsim all` runs, in order.
func AllNames() []string {
	var names []string
	for _, e := range registry {
		if e.inAll {
			names = append(names, e.name)
		}
	}
	return names
}

// Known reports whether name is a registered experiment.
func Known(name string) bool {
	for _, e := range registry {
		if e.name == name {
			return true
		}
	}
	return false
}

// JobFor returns the named experiment as a sweep job: an enumerable
// list of independent units plus the assembly step that rebuilds the
// experiment's result in deterministic order.
func JobFor(name string, o Options, ms *MeasurementSet) (sweep.Job, error) {
	for _, e := range registry {
		if e.name == name {
			return e.build(o, ms), nil
		}
	}
	return sweep.Job{}, fmt.Errorf("unknown experiment %q", name)
}

// Run runs the named experiment serially on the calling goroutine and
// returns its assembled result, e.g. Run[*Fig7Result]("fig7", o, ms).
// A nil ms measures into a fresh MeasurementSet.
func Run[T any](name string, o Options, ms *MeasurementSet) (T, error) {
	var res T
	if ms == nil {
		ms = NewMeasurementSet(o)
	}
	j, err := JobFor(name, o, ms)
	if err != nil {
		return res, err
	}
	v, err := sweep.RunSerial(j)
	if err != nil {
		return res, err
	}
	res, ok := v.(T)
	if !ok {
		return res, fmt.Errorf("experiments: %s assembles %T, not %T", name, v, res)
	}
	return res, nil
}

// collect type-asserts one result per unit, in unit order.
func collect[T any](parts []interface{}) []T {
	out := make([]T, len(parts))
	for i, p := range parts {
		out[i] = p.(T)
	}
	return out
}

// concatRows builds an Assemble function that concatenates per-unit
// row slices (in unit order) and wraps them in a result value.
func concatRows[T any](wrap func([]T) interface{}) func([]interface{}) (interface{}, error) {
	return func(parts []interface{}) (interface{}, error) {
		var rows []T
		for _, p := range parts {
			rows = append(rows, p.([]T)...)
		}
		return wrap(rows), nil
	}
}

// The text-only outputs render repository metadata rather than a paper
// measurement; each is one unit producing pre-rendered bytes.

// specJob prints the device datasheet.
func specJob(o Options, _ *MeasurementSet) sweep.Job {
	return sweep.Single("spec", func() (interface{}, error) {
		var buf bytes.Buffer
		for _, line := range o.Device().Datasheet() {
			fmt.Fprintln(&buf, line)
		}
		fmt.Fprintln(&buf)
		return buf.Bytes(), nil
	})
}

// workloadsJob renders Table 2: the benchmark stand-ins.
func workloadsJob(Options, *MeasurementSet) sweep.Job {
	return sweep.Single("workloads", func() (interface{}, error) {
		var buf bytes.Buffer
		t := report.NewTable("Table 2: benchmark stand-ins",
			"benchmark", "fp", "base CPI", "budget", "description")
		for _, name := range workload.Names() {
			w, err := workload.ByName(name)
			if err != nil {
				return nil, err
			}
			desc := w.Description
			if len(desc) > 72 {
				desc = desc[:69] + "..."
			}
			t.Row(w.Name, w.Float, w.BaseCPI, w.Budget, desc)
		}
		t.Render(&buf)
		return buf.Bytes(), nil
	})
}

// fig910Job prints the shape of the Figure 9/10 GSPN for the device
// under test and the conventional reference.
func fig910Job(o Options, _ *MeasurementSet) sweep.Job {
	return sweep.Single("fig910", func() (interface{}, error) {
		var buf bytes.Buffer
		for _, cfg := range []cpumodel.SystemConfig{cpumodel.ConfigFor(o.Device()), cpumodel.ConfigFor(core.Reference())} {
			m, err := cpumodel.Build(cfg, cpumodel.AppRates{
				Name: "shape", BaseCPI: 1, LoadFrac: 0.25, StoreFrac: 0.1,
				IHit: 0.95, LoadHit: 0.95, StoreHit: 0.95,
				IL2Hit: 0.9, LoadL2Hit: 0.9, StoreL2Hit: 0.9,
			})
			if err != nil {
				return nil, err
			}
			sh := m.Shape()
			fmt.Fprintf(&buf,
				"Figure 9/10 net (%s): %d places, %d immediate + %d deterministic + %d exponential transitions, %d banks, L2=%v"+"\n",
				cfg.Name, sh.Places, sh.Immediate, sh.Deterministic, sh.Exponential, sh.Banks, sh.HasL2)
		}
		fmt.Fprintln(&buf)
		return buf.Bytes(), nil
	})
}

// selftestJob runs the built-in self test.
func selftestJob(Options, *MeasurementSet) sweep.Job {
	return sweep.Single("selftest", func() (interface{}, error) {
		var buf bytes.Buffer
		r, err := selftest.Run(selftest.Config{WindowBytes: 256 << 10})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&buf, "built-in self test: passed=%v phase=%s instructions=%d window=%dKB fills=%d\n\n",
			r.Passed, r.Phase, r.Instructions, r.MemoryBytes>>10, r.CacheFills)
		return buf.Bytes(), nil
	})
}
