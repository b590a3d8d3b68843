package workload

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cpumodel"
)

// TestFastMatchesReplay is the workload half of the property-based
// equivalence suite (the random-trace half lives in
// internal/stackdist): for every workload at the quick budget, the
// single-pass profiled measurement and the per-configuration replay
// oracle must report identical miss counts for every
// size/associativity in the Figure 7/8 grid, the proposed caches, the
// victim-augmented cache, the reference L1 pair and the conditional
// L2. The rendered Figures 7/8 and Tables 3/4 depend only on these
// statistics, so equal statistics mean identical tables. The ref64B
// case checks that the conventional accessors follow a reference
// device with 64 B lines rather than assuming 32 B.
func TestFastMatchesReplay(t *testing.T) {
	const budget = 300_000
	ref64 := core.Reference()
	ref64.ICacheLineBytes, ref64.DCacheLineBytes = 64, 64
	type pair struct {
		name string
		w    Workload
		ref  core.Device
	}
	var cases []pair
	for _, w := range All() {
		cases = append(cases, pair{w.Name, w, core.Reference()})
	}
	w, err := ByName("129.compress")
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, pair{"ref64B/" + w.Name, w, ref64})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			fast, err := RunDevicesFrom(c.w, budget, core.Proposed(), c.ref, Live{})
			if err != nil {
				t.Fatal(err)
			}
			replay, err := RunReplayDevices(c.w, budget, core.Proposed(), c.ref)
			if err != nil {
				t.Fatal(err)
			}
			f, r := fast.Caches, replay.Caches
			if fc, rc := f.RefCounts(), r.RefCounts(); fc != rc {
				t.Errorf("counts: fast %+v, replay %+v", fc, rc)
			}
			if a, b := f.PropIStats(), r.PropIStats(); a != b {
				t.Errorf("PropI: fast %+v, replay %+v", a, b)
			}
			if a, b := f.PropDStats(), r.PropDStats(); a != b {
				t.Errorf("PropD: fast %+v, replay %+v", a, b)
			}
			if a, b := f.PropDVictimStats(), r.PropDVictimStats(); a != b {
				t.Errorf("PropDVictim: fast %+v, replay %+v", a, b)
			}
			fi, fd := f.L1Stats()
			ri, rd := r.L1Stats()
			if fi != ri || fd != rd {
				t.Errorf("L1: fast %+v/%+v, replay %+v/%+v", fi, fd, ri, rd)
			}
			if a, b := f.L2Stats(), r.L2Stats(); a != b {
				t.Errorf("L2: fast %+v, replay %+v", a, b)
			}
			for _, kb := range ConvISizesKB {
				if a, b := f.ConvIStats(kb), r.ConvIStats(kb); a != b {
					t.Errorf("ConvI %dKB: fast %+v, replay %+v", kb, a, b)
				}
			}
			for _, kb := range ConvDSizesKB {
				if a, b := f.ConvDMStats(kb), r.ConvDMStats(kb); a != b {
					t.Errorf("ConvDM %dKB: fast %+v, replay %+v", kb, a, b)
				}
				if a, b := f.Conv2WStats(kb), r.Conv2WStats(kb); a != b {
					t.Errorf("Conv2W %dKB: fast %+v, replay %+v", kb, a, b)
				}
			}
			for _, integrated := range []bool{true, false} {
				for _, victim := range []bool{true, false} {
					if a, b := fast.Rates(integrated, victim), replay.Rates(integrated, victim); a != b {
						t.Errorf("rates integrated=%v victim=%v: fast %+v, replay %+v", integrated, victim, a, b)
					}
				}
			}
			if fast.Instr != replay.Instr {
				t.Errorf("instructions: fast %d, replay %d", fast.Instr, replay.Instr)
			}
		})
	}
}

// TestRatesAgreeAcrossPaths checks the GSPN input derivation end to
// end on both measurement paths.
func TestRatesAgreeAcrossPaths(t *testing.T) {
	w, err := ByName("102.swim")
	if err != nil {
		t.Fatal(err)
	}
	fast, err := runPaper(w, 120_000)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := RunReplay(w, 120_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, integrated := range []bool{true, false} {
		for _, victim := range []bool{true, false} {
			a := fast.Rates(integrated, victim)
			b := replay.Rates(integrated, victim)
			if a != b {
				t.Errorf("integrated=%v victim=%v: fast %+v, replay %+v",
					integrated, victim, a, b)
			}
		}
	}
}

// TestMeasurementConcurrentReads: the experiments share one finished
// measurement across sweep workers, so reading its statistics must
// change no state. The reads start concurrently, before any sequential
// read, which is where a lazily flushed counter would race (run under
// -race).
func TestMeasurementConcurrentReads(t *testing.T) {
	w, err := ByName("126.gcc")
	if err != nil {
		t.Fatal(err)
	}
	m, err := runPaper(w, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]cpumodel.AppRates, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = m.Rates(true, true)
		}()
	}
	wg.Wait()
	want := m.Rates(true, true)
	for i, g := range got {
		if g != want {
			t.Errorf("reader %d: %+v, want %+v", i, g, want)
		}
	}
}
