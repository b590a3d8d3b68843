package main

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/trace"
	"repro/internal/workload"
)

// replayCaches is an independent reference for workload.CacheSet: one
// simulated cache per configuration, built straight from the device
// fields, with every reference replayed through all of them. It shares
// nothing with the stack-distance profilers or the family geometry, so
// tables rendered from it check the whole fast path.
type replayCaches struct {
	counts        trace.Counts
	propI, propD  *cache.SetAssoc
	propDV        *cache.WithVictim // nil: the device has no victim cache
	convI, convDM map[int]*cache.SetAssoc
	conv2W        map[int]*cache.SetAssoc
	l2            *cache.SetAssoc // nil: the reference has no L2
	refIKB        int             // the L1 grid points whose misses
	refDKB        int             // feed the L2
}

func newReplayCaches(prop, ref core.Device) *replayCaches {
	line := uint64(ref.DCacheLineBytes)
	cs := &replayCaches{
		propI:  cache.NewDirectMapped("prop I", uint64(prop.ICacheBytes), uint64(prop.ICacheLineBytes)),
		propD:  cache.NewSetAssoc("prop D", uint64(prop.DCacheBytes), uint64(prop.DCacheLineBytes), prop.DCacheWays),
		convI:  make(map[int]*cache.SetAssoc),
		convDM: make(map[int]*cache.SetAssoc),
		conv2W: make(map[int]*cache.SetAssoc),
		refIKB: ref.ICacheBytes >> 10,
		refDKB: ref.DCacheBytes >> 10,
	}
	if prop.VictimEntries > 0 {
		cs.propDV = cache.NewWithVictim(
			cache.NewSetAssoc("prop D + victim", uint64(prop.DCacheBytes), uint64(prop.DCacheLineBytes), prop.DCacheWays),
			cache.NewVictim(prop.VictimEntries, uint64(prop.VictimLineBytes)))
	}
	if ref.L2Bytes > 0 {
		cs.l2 = cache.NewSetAssoc("L2", uint64(ref.L2Bytes), uint64(ref.L2LineBytes), ref.L2Ways)
	}
	for _, kb := range workload.ConvISizesKB {
		cs.convI[kb] = cache.NewDirectMapped("conv I", uint64(kb)<<10, line)
	}
	for _, kb := range workload.ConvDSizesKB {
		cs.convDM[kb] = cache.NewDirectMapped("conv DM D", uint64(kb)<<10, line)
		cs.conv2W[kb] = cache.NewSetAssoc("conv 2-way D", uint64(kb)<<10, line, 2)
	}
	return cs
}

// Ref implements trace.Sink. The L2 sees only misses from the
// reference L1 pair.
func (cs *replayCaches) Ref(r trace.Ref) {
	cs.counts.Ref(r)
	hitL1 := false
	if r.Kind == trace.Ifetch {
		cs.propI.Access(r.Addr, r.Kind)
		for kb, c := range cs.convI {
			if c.Access(r.Addr, r.Kind) && kb == cs.refIKB {
				hitL1 = true
			}
		}
	} else {
		cs.propD.Access(r.Addr, r.Kind)
		if cs.propDV != nil {
			cs.propDV.Access(r.Addr, r.Kind)
		}
		for kb, c := range cs.convDM {
			if c.Access(r.Addr, r.Kind) && kb == cs.refDKB {
				hitL1 = true
			}
		}
		for _, c := range cs.conv2W {
			c.Access(r.Addr, r.Kind)
		}
	}
	if cs.l2 != nil && !hitL1 {
		cs.l2.Access(r.Addr, r.Kind)
	}
}

func (cs *replayCaches) RefCounts() trace.Counts        { return cs.counts }
func (cs *replayCaches) PropIStats() cache.Stats        { return cs.propI.Stats() }
func (cs *replayCaches) PropDStats() cache.Stats        { return cs.propD.Stats() }
func (cs *replayCaches) ConvIStats(kb int) cache.Stats  { return cs.convI[kb].Stats() }
func (cs *replayCaches) ConvDMStats(kb int) cache.Stats { return cs.convDM[kb].Stats() }
func (cs *replayCaches) Conv2WStats(kb int) cache.Stats { return cs.conv2W[kb].Stats() }

func (cs *replayCaches) PropDVictimStats() cache.Stats {
	if cs.propDV == nil {
		return cs.propD.Stats()
	}
	return cs.propDV.Stats()
}

func (cs *replayCaches) L1Stats() (i, d cache.Stats) {
	return cs.convI[cs.refIKB].Stats(), cs.convDM[cs.refDKB].Stats()
}

func (cs *replayCaches) L2Stats() cache.Stats {
	if cs.l2 == nil {
		return cache.Stats{}
	}
	return cs.l2.Stats()
}

// newReplayMeasurementSet is experiments.NewMeasurementSet with every
// workload measured by replayCaches instead of the simulator's CacheSet.
func newReplayMeasurementSet(o experiments.Options) *experiments.MeasurementSet {
	return experiments.NewMeasurementSetWith(o, func(w workload.Workload) (*workload.Measurement, error) {
		cs := newReplayCaches(o.Device(), core.Reference())
		instr, err := workload.Live{}.Stream(w, o.Budget, cs)
		if err != nil {
			return nil, err
		}
		return &workload.Measurement{Workload: w, Caches: cs, Instr: instr}, nil
	})
}
