package experiments

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
)

func TestAblateLineSize(t *testing.T) {
	r, err := Run[*LineSizeResult]("ablate-linesize", topts, nil)
	if err != nil {
		t.Fatal(err)
	}
	get := func(bench string, line int) float64 {
		for _, row := range r.Rows {
			if row.Bench == bench && row.LineBytes == line {
				return row.MissPct
			}
		}
		t.Fatalf("missing %s/%d", bench, line)
		return 0
	}
	// hydro2d: long lines are pure prefetch (Section 5.3).
	if get("104.hydro2d", 512) >= get("104.hydro2d", 32) {
		t.Error("hydro2d should improve with 512 B lines")
	}
	// tomcatv: long lines collapse the set count and conflicts explode.
	if get("101.tomcatv", 512) <= get("101.tomcatv", 64) {
		t.Error("tomcatv should degrade with 512 B lines (16 sets)")
	}
	if r.Table().String() == "" {
		t.Error("empty table")
	}
}

func TestAblateVictimSize(t *testing.T) {
	r, err := Run[*VictimSizeResult]("ablate-victim", topts, nil)
	if err != nil {
		t.Fatal(err)
	}
	get := func(bench string, entries int) float64 {
		for _, row := range r.Rows {
			if row.Bench == bench && row.Entries == entries {
				return row.MissPct
			}
		}
		t.Fatalf("missing %s/%d", bench, entries)
		return 0
	}
	// The paper's 16 entries capture the bulk of the benefit: 16 must
	// beat none by a lot, and 64 must add little over 16.
	none := get("101.tomcatv", 0)
	sixteen := get("101.tomcatv", 16)
	sixtyFour := get("101.tomcatv", 64)
	if sixteen > none/3 {
		t.Errorf("16-entry victim too weak: %.2f%% vs %.2f%%", sixteen, none)
	}
	if sixteen-sixtyFour > none/10 {
		t.Errorf("64 entries add too much over 16: %.2f%% vs %.2f%%", sixtyFour, sixteen)
	}
}

func TestAblateCoherenceUnit(t *testing.T) {
	r, err := Run[*UnitResult]("ablate-unit", topts, nil)
	if err != nil {
		t.Fatal(err)
	}
	get := func(bench string, unit uint64) uint64 {
		for _, row := range r.Rows {
			if row.Bench == bench && row.UnitBytes == unit {
				return row.Cycles
			}
		}
		t.Fatalf("missing %s/%d", bench, unit)
		return 0
	}
	// The false-sharing microbenchmark must blow up with 512 B units.
	small := get("falseshare (micro)", 32)
	big := get("falseshare (micro)", 512)
	if big < 10*small {
		t.Errorf("false sharing not visible: 32B=%d, 512B=%d", small, big)
	}
}

func TestAblateScoreboard(t *testing.T) {
	ms := NewMeasurementSet(topts)
	r, err := Run[*ScoreboardResult]("ablate-scoreboard", topts, ms)
	if err != nil {
		t.Fatal(err)
	}
	get := func(bench string, rate float64) float64 {
		for _, row := range r.Rows {
			if row.Bench == bench && row.Rate == rate {
				return row.MemCPI
			}
		}
		t.Fatalf("missing %s/%v", bench, rate)
		return 0
	}
	// More scoreboarding (lower rate) must not increase memory CPI.
	if get("126.gcc", 0.25) > get("126.gcc", 0)+0.005 {
		t.Error("aggressive scoreboarding should reduce memory CPI")
	}
}

func TestAblateINCAssociativity(t *testing.T) {
	r, err := Run[*INCResult]("ablate-inc", topts, nil)
	if err != nil {
		t.Fatal(err)
	}
	var dm, sevenWay int64
	for _, row := range r.Rows {
		if row.Bench != "WATER" {
			continue
		}
		switch row.Ways {
		case 1:
			dm = row.RemoteLoads
		case 7:
			sevenWay = row.RemoteLoads
		}
	}
	if sevenWay >= dm {
		t.Errorf("7-way INC should cut remote loads: DM=%d, 7-way=%d", dm, sevenWay)
	}
}

func TestAblateEngines(t *testing.T) {
	r, err := Run[*EngineResult]("ablate-engines", topts, nil)
	if err != nil {
		t.Fatal(err)
	}
	get := func(bench string, engines int) EngineRow {
		for _, row := range r.Rows {
			if row.Bench == bench && row.Engines == engines {
				return row
			}
		}
		t.Fatalf("missing %s/%d", bench, engines)
		return EngineRow{}
	}
	one := get("MP3D", 1)
	two := get("MP3D", 2)
	four := get("MP3D", 4)
	if one.QueueCycles < two.QueueCycles || two.QueueCycles < four.QueueCycles {
		t.Errorf("engine queueing not monotone: %d / %d / %d",
			one.QueueCycles, two.QueueCycles, four.QueueCycles)
	}
	if one.Cycles < two.Cycles {
		t.Errorf("one engine should not beat two: %d vs %d", one.Cycles, two.Cycles)
	}
}

func TestAblateJouppi(t *testing.T) {
	r, err := Run[*JouppiResult]("ablate-jouppi", topts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		switch row.Bench {
		case "101.tomcatv", "102.swim":
			if row.VictimPct >= row.StreamPct {
				t.Errorf("%s: victim %.2f%% should beat stream %.2f%%",
					row.Bench, row.VictimPct, row.StreamPct)
			}
		}
		if row.VictimPct > row.PlainPct+0.01 {
			t.Errorf("%s: victim worse than plain", row.Bench)
		}
	}
}

// TestAblationsFollowMachine: the coherence-unit, INC, protocol-engine
// and Jouppi ablations simulate the configured device, not the paper
// machine — on the 32-bank, 256 B-column example with 8 victim entries
// their results differ from the default device's.
func TestAblationsFollowMachine(t *testing.T) {
	dev, err := core.LoadFile(filepath.Join("..", "..", "examples", "machine-32bank.json"))
	if err != nil {
		t.Fatal(err)
	}
	mach := topts
	mach.Machine = &dev
	for _, name := range []string{"ablate-unit", "ablate-inc", "ablate-engines", "ablate-jouppi"} {
		def, err := Run[any](name, topts, nil)
		if err != nil {
			t.Fatalf("%s on the default device: %v", name, err)
		}
		got, err := Run[any](name, mach, nil)
		if err != nil {
			t.Fatalf("%s on %s: %v", name, dev.Name, err)
		}
		if reflect.DeepEqual(def, got) {
			t.Errorf("%s: identical results for the default and 32-bank devices; -machine does not reach it", name)
		}
	}
}

// TestAblateJouppiVictimless: on a device without a victim cache the
// Jouppi ablation runs, and its "+ victim" column repeats the
// column-buffer column.
func TestAblateJouppiVictimless(t *testing.T) {
	dev := core.Proposed().WithGeometry(16, 512, 0)
	o := topts
	o.Machine = &dev
	r, err := Run[*JouppiResult]("ablate-jouppi", o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range r.Rows {
		if row.VictimPct != row.PlainPct {
			t.Errorf("%s: + victim %.3f%% on a victimless device, want the plain %.3f%%",
				row.Bench, row.VictimPct, row.PlainPct)
		}
	}
}

// TestAblationTablesRender smoke-renders every ablation table so a
// formatting regression cannot slip through unrendered.
func TestAblationTablesRender(t *testing.T) {
	if r, err := Run[*VictimSizeResult]("ablate-victim", topts, nil); err != nil || r.Table().String() == "" {
		t.Errorf("victim table: %v", err)
	}
	if r, err := Run[*UnitResult]("ablate-unit", topts, nil); err != nil || r.Table().String() == "" {
		t.Errorf("unit table: %v", err)
	}
	ms := NewMeasurementSet(topts)
	if r, err := Run[*ScoreboardResult]("ablate-scoreboard", topts, ms); err != nil || r.Table().String() == "" {
		t.Errorf("scoreboard table: %v", err)
	}
	if r, err := Run[*INCResult]("ablate-inc", topts, nil); err != nil || r.Table().String() == "" {
		t.Errorf("inc table: %v", err)
	}
	if r, err := Run[*EngineResult]("ablate-engines", topts, nil); err != nil || r.Table().String() == "" {
		t.Errorf("engines table: %v", err)
	}
	if r, err := Run[*JouppiResult]("ablate-jouppi", topts, nil); err != nil || r.Table().String() == "" {
		t.Errorf("jouppi table: %v", err)
	}
}

func TestSCOMAEndToEnd(t *testing.T) {
	r, err := Run[*SCOMAResult]("scoma", topts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	out := r.Table().String()
	for _, b := range []string{"LU", "WATER", "S-COMA"} {
		if !strings.Contains(out, b) {
			t.Errorf("scoma table missing %q", b)
		}
	}
	// S-COMA should be competitive with CC-NUMA+victim across the board
	// (within 2x either way; its wins are on the INC-bound codes).
	for _, row := range r.Rows {
		ccn := float64(row.Cycles[coherence.IntegratedVictim])
		sc := float64(row.Cycles[coherence.SimpleCOMA])
		if sc > 2*ccn || ccn > 2*sc {
			t.Errorf("%s: S-COMA %v vs CC-NUMA %v out of band", row.Bench, sc, ccn)
		}
	}
}
