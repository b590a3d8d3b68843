package workload

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/stackdist"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/internal/vm"
)

// ConvISizesKB and ConvDSizesKB are the conventional cache sizes
// plotted in Figures 7 and 8, in ascending order (iterate these — not a
// map — when deterministic output order matters).
var (
	ConvISizesKB = []int{8, 16, 32, 64}
	ConvDSizesKB = []int{8, 16, 32, 64, 128, 256}
)

// CacheMeasurer is what one simulation pass of a workload produces:
// miss statistics for every cache organisation in the Figure 7/8 grids,
// the proposed column-buffer caches of Tables 3/4, and the reference
// system's L1 and L2. CacheSet is the one implementation the simulator
// uses; the interface is the seam that lets tests substitute the
// one-simulated-cache-per-configuration replay oracle and check that
// both report identical statistics (see TestFastMatchesReplay).
type CacheMeasurer interface {
	trace.Sink
	// RefCounts tallies the reference stream by kind.
	RefCounts() trace.Counts
	// PropIStats is the proposed direct-mapped column-buffer I-cache.
	PropIStats() cache.Stats
	// PropDStats is the proposed column-buffer D-cache, no victim.
	PropDStats() cache.Stats
	// PropDVictimStats is the proposed D-cache plus its victim cache
	// (the D-cache alone when the device has none).
	PropDVictimStats() cache.Stats
	// ConvIStats is the conventional DM I-cache of the given size.
	ConvIStats(kb int) cache.Stats
	// ConvDMStats is the conventional DM D-cache of the given size.
	ConvDMStats(kb int) cache.Stats
	// Conv2WStats is the conventional 2-way D-cache of the given size.
	Conv2WStats(kb int) cache.Stats
	// L1Stats is the reference system's first-level I- and D-cache
	// pair: the conventional grid points whose misses feed the L2.
	L1Stats() (i, d cache.Stats)
	// L2Stats is the reference system's unified L2, which sees only
	// misses from the first-level pair.
	L2Stats() cache.Stats
}

// CacheSet measures every Figure 7/8 configuration in a single profiled
// pass. The proposed column-buffer caches are a one-point
// FamilyCacheSet, the same engine the design-space search runs. The
// conventional grid adds two stack-distance set profilers
// (conventional-I, conventional-D) whose per-set LRU position
// histograms answer every set count × associativity in the grid
// exactly (internal/stackdist). The reference system's L2 replays: it
// sees a conditional stream, only first-level misses, which the L1
// trackers' LRU positions route to it. Runs of references to the same
// conventional line — the common case for instruction fetches —
// collapse into MRU-hit counter bumps without touching any LRU state.
type CacheSet struct {
	*FamilyCacheSet             // the proposed column-buffer caches
	prop            FamilyPoint // the proposed organisation's one family point

	iconv *stackdist.SetProfiler // conventional lines, ifetch stream
	dconv *stackdist.SetProfiler // conventional lines, data stream
	l2    *cache.SetAssoc        // replay fallback: conditional stream (nil: no L2)

	convShift    uint   // log2 of the conventional line size
	iL1, dL1     int    // iconv/dconv tracker indices of the reference L1 pair
	l1IKB, l1DKB int    // reference L1 I- and D-cache sizes in KB
	lastILine    uint64 // previous ifetch conventional line + 1 (0 = none)
	lastDLine    uint64 // previous load/store conventional line + 1 (0 = none)
}

// NewCacheSetFor builds the measurement set for one run against a
// device pair: prop supplies the column-buffer cache geometries (and victim
// cache), ref the conventional line size, the L1 pair feeding the L2,
// and the L2 itself. The proposed caches are measured as one family
// point at the DRAM column size: core.Device.Validate pins the I-cache
// to banks × column lines, the D-cache to ways × banks × column and the
// victim cache to one column, and the D-cache line is taken to be the
// column as well. The conventional size grids stay on the Figure 7/8
// axes; ref's L1 sizes must lie on them.
func NewCacheSetFor(prop, ref core.Device) *CacheSet {
	convLine := uint64(ref.DCacheLineBytes)
	var ig []stackdist.Geometry
	for _, kb := range ConvISizesKB {
		ig = append(ig, stackdist.Geometry{Sets: uint64(kb) << 10 / convLine, Ways: 1})
	}
	var dg []stackdist.Geometry
	for _, kb := range ConvDSizesKB {
		dg = append(dg,
			stackdist.Geometry{Sets: uint64(kb) << 10 / convLine, Ways: 1},
			stackdist.Geometry{Sets: uint64(kb) << 10 / (2 * convLine), Ways: 2})
	}
	p := FamilyPoint{Banks: prop.DRAM.Banks, Ways: prop.DCacheWays, VictimEntries: prop.VictimEntries}
	cs := &CacheSet{
		FamilyCacheSet: NewFamilyCacheSet(prop.DRAM.ColumnBytes, []FamilyPoint{p}),
		prop:           p,
		iconv:          stackdist.NewSetProfiler(convLine, ig),
		dconv:          stackdist.NewSetProfiler(convLine, dg),
		convShift:      uint(bits.TrailingZeros64(convLine)),
		l1IKB:          ref.ICacheBytes >> 10,
		l1DKB:          ref.DCacheBytes >> 10,
	}
	if ref.L2Bytes > 0 {
		cs.l2 = cache.NewSetAssoc(
			fmt.Sprintf("%dKB %d-way %dB unified L2", ref.L2Bytes>>10, ref.L2Ways, ref.L2LineBytes),
			uint64(ref.L2Bytes), uint64(ref.L2LineBytes), ref.L2Ways)
	}
	cs.iL1 = cs.iconv.TrackerIndex(uint64(ref.ICacheBytes) / convLine)
	cs.dL1 = cs.dconv.TrackerIndex(uint64(ref.DCacheBytes) / convLine)
	return cs
}

// Ref implements trace.Sink: one reference drives every measurement.
func (cs *CacheSet) Ref(r trace.Ref) {
	cs.FamilyCacheSet.Ref(r)
	line := r.Addr >> cs.convShift
	if r.Kind == trace.Ifetch {
		if line+1 == cs.lastILine {
			// Same line as the previous fetch: an MRU hit in every
			// tracked I-geometry, and necessarily a first-level hit,
			// so the L2 never sees it.
			cs.iconv.AddRepeats(trace.Ifetch, 1)
			return
		}
		cs.lastILine = line + 1
		cs.iconv.Access(r.Addr, trace.Ifetch)
		// The reference system's L2 sees first-level I misses: the DM
		// L1 hit iff the access hit at LRU position 0.
		if cs.l2 != nil && cs.iconv.Pos[cs.iL1] != 0 {
			cs.l2.Access(r.Addr, trace.Ifetch)
		}
		return
	}
	if line+1 == cs.lastDLine {
		cs.dconv.AddRepeats(r.Kind, 1)
		return
	}
	cs.lastDLine = line + 1
	cs.dconv.Access(r.Addr, r.Kind)
	if cs.l2 != nil && cs.dconv.Pos[cs.dL1] != 0 {
		cs.l2.Access(r.Addr, r.Kind)
	}
}

// Refs implements trace.BatchSink.
func (cs *CacheSet) Refs(rs []trace.Ref) {
	for i := range rs {
		cs.Ref(rs[i])
	}
}

// setStats assembles per-kind miss statistics for one geometry.
func setStats(p *stackdist.SetProfiler, sets uint64, ways int) cache.Stats {
	return cache.Stats{
		Ifetch: p.MissCounter(sets, ways, trace.Ifetch),
		Load:   p.MissCounter(sets, ways, trace.Load),
		Store:  p.MissCounter(sets, ways, trace.Store),
	}
}

// PropIStats implements CacheMeasurer.
func (cs *CacheSet) PropIStats() cache.Stats { return cs.IStats(cs.prop.Banks) }

// PropDStats implements CacheMeasurer.
func (cs *CacheSet) PropDStats() cache.Stats { return cs.DStats(cs.prop.Banks, cs.prop.Ways) }

// PropDVictimStats implements CacheMeasurer.
func (cs *CacheSet) PropDVictimStats() cache.Stats { return cs.DVictimStats(cs.prop) }

// ConvIStats implements CacheMeasurer.
func (cs *CacheSet) ConvIStats(kb int) cache.Stats {
	return setStats(cs.iconv, uint64(kb)<<10>>cs.convShift, 1)
}

// ConvDMStats implements CacheMeasurer.
func (cs *CacheSet) ConvDMStats(kb int) cache.Stats {
	return setStats(cs.dconv, uint64(kb)<<10>>cs.convShift, 1)
}

// Conv2WStats implements CacheMeasurer.
func (cs *CacheSet) Conv2WStats(kb int) cache.Stats {
	return setStats(cs.dconv, uint64(kb)<<10>>cs.convShift/2, 2)
}

// L1Stats implements CacheMeasurer.
func (cs *CacheSet) L1Stats() (i, d cache.Stats) {
	return cs.ConvIStats(cs.l1IKB), cs.ConvDMStats(cs.l1DKB)
}

// L2Stats implements CacheMeasurer.
func (cs *CacheSet) L2Stats() cache.Stats {
	if cs.l2 == nil {
		return cache.Stats{}
	}
	return cs.l2.Stats()
}

// Source produces a workload's reference stream. The two
// implementations are Live (build the program and execute it on the
// functional simulator — the default) and Traced (replay a recorded
// stream from a tracestore.Store, recording it on first use). Every
// measurement path is written against this interface, so swapping the
// expensive generator for a cached trace is invisible to the cache
// models: both sources deliver byte-for-byte the same stream in the
// same batch granularity.
type Source interface {
	// Stream delivers the workload's reference stream for the given
	// instruction budget (<= 0 means the workload's default) into sink,
	// returning the number of instructions executed.
	Stream(w Workload, budget int64, sink trace.Sink) (int64, error)
}

// Live executes the workload program on the VM: the generate-every-time
// path.
type Live struct{}

// Stream implements Source.
func (Live) Stream(w Workload, budget int64, sink trace.Sink) (int64, error) {
	if budget <= 0 {
		budget = w.Budget
	}
	cpu, err := vm.RunProgram(w.Build(), sink, budget)
	if err != nil {
		return 0, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	return cpu.Instructions, nil
}

// Traced serves reference streams from a tracestore.Store: a cached trace
// replays (allocation-free, no VM execution); a missing or corrupt
// entry is generated live and recorded in the same pass, so later runs
// replay. With Force set every stream re-records, refreshing the cache.
type Traced struct {
	Store *tracestore.Store
	// Seed participates in the cache key alongside the workload name and
	// budget (workload generation is deterministic, but the key is
	// deliberately conservative).
	Seed int64
	// Force re-records even when a valid entry exists (iramsim -record).
	Force bool
}

// Stream implements Source. The instruction count equals the stream's
// ifetch tally: the VM emits exactly one ifetch per retired
// instruction, so a replayed measurement reports the same Instr a live
// one would.
func (t Traced) Stream(w Workload, budget int64, sink trace.Sink) (int64, error) {
	if budget <= 0 {
		budget = w.Budget
	}
	k := tracestore.Key{Workload: w.Name, Budget: budget, Seed: t.Seed}
	gen := func(s trace.Sink) error {
		_, err := vm.RunProgram(w.Build(), s, budget)
		if err != nil {
			return fmt.Errorf("workload %s: %w", w.Name, err)
		}
		return nil
	}
	var counts trace.Counts
	var err error
	if t.Force {
		counts, err = t.Store.Record(k, gen, sink)
	} else {
		counts, _, err = t.Store.Fetch(k, gen, sink)
	}
	if err != nil {
		return counts.Ifetches, err
	}
	return counts.Ifetches, nil
}

// Measurement is the distilled result of one workload run.
type Measurement struct {
	Workload Workload
	Caches   CacheMeasurer
	Instr    int64
}

// RunDevicesFrom executes the workload for the given instruction
// budget (<= 0 means the workload's own default), drawing its reference
// stream from src (Live{} or the trace record/replay path), and
// measures every cache model of the device pair via the single-pass
// profiled path.
func RunDevicesFrom(w Workload, budget int64, prop, ref core.Device, src Source) (*Measurement, error) {
	return runWith(w, budget, NewCacheSetFor(prop, ref), src)
}

func runWith(w Workload, budget int64, cs CacheMeasurer, src Source) (*Measurement, error) {
	instr, err := src.Stream(w, budget, cs)
	if err != nil {
		return nil, err
	}
	return &Measurement{Workload: w, Caches: cs, Instr: instr}, nil
}

// Rates converts the measurement into GSPN inputs for the given system.
// For the integrated system, withVictim selects whether the data-cache
// hit probability includes the victim cache (Table 4) or not (Table 3).
// The reference system reads its first-level pair plus the measured
// conditional L2 hit rates.
func (m *Measurement) Rates(integrated, withVictim bool) cpumodel.AppRates {
	cs := m.Caches
	baseCPI := max(m.Workload.BaseCPI, 1)
	if integrated {
		d := cs.PropDStats()
		if withVictim {
			d = cs.PropDVictimStats()
		}
		return AppRates(m.Workload.Name, baseCPI, cs.RefCounts(), cs.PropIStats(), d)
	}
	i, d := cs.L1Stats()
	app := AppRates(m.Workload.Name, baseCPI, cs.RefCounts(), i, d)
	l2 := cs.L2Stats()
	app.IL2Hit = 1 - l2.Ifetch.Rate()
	app.LoadL2Hit = 1 - l2.Load.Rate()
	app.StoreL2Hit = 1 - l2.Store.Rate()
	return app
}

// AppRates derives GSPN inputs from a reference stream's tallies and
// the first-level I- and D-cache statistics it produced: the one
// derivation every measurement path (and the public iram.Run) shares.
// baseCPI passes through as given; the workload paths floor it at 1.
func AppRates(name string, baseCPI float64, counts trace.Counts, i, d cache.Stats) cpumodel.AppRates {
	return cpumodel.AppRates{
		Name:      name,
		BaseCPI:   baseCPI,
		LoadFrac:  counts.LoadFrac(),
		StoreFrac: counts.StoreFrac(),
		IHit:      1 - i.Ifetch.Rate(),
		LoadHit:   1 - d.Load.Rate(),
		StoreHit:  1 - d.Store.Rate(),
	}
}
