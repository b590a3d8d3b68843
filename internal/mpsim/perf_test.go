package mpsim

import "testing"

// opsBody issues a deterministic mix of reads, writes, locks, and
// barriers totalling `ops` coordinator operations per processor (the
// steady-state operation mix of a SPLASH kernel).
func opsBody(ops int) func(p *Proc) {
	return func(p *Proc) {
		for i := 0; i < ops; i++ {
			a := uint64(p.ID*977 + i)
			switch {
			case i%97 == 96:
				p.Lock(p.ID % 3)
				p.Unlock(p.ID % 3)
			case i%251 == 250:
				p.Barrier()
			case i%3 == 0:
				p.Write(a)
			default:
				p.Read(a)
			}
			p.Compute(uint64(i % 7))
		}
	}
}

// TestRunZeroAllocsPerOp pins the coordinator hot path at ~0 heap
// allocations per steady-state operation (the analogue of
// memsys.TestAccessNsZeroAllocs for the multiprocessor path). Run has
// fixed startup costs — one coroutine per processor, the heap, the
// slots — so the guard measures the marginal allocations between a
// short and a long run of the same body and requires them to vanish
// per op.
func TestRunZeroAllocsPerOp(t *testing.T) {
	const procs = 4
	measure := func(ops int) float64 {
		return testing.AllocsPerRun(5, func() {
			Run(procs, &flatMemory{lat: 3}, DefaultSyncCosts(), opsBody(ops))
		})
	}
	short := measure(500)
	long := measure(10_500)
	perOp := (long - short) / float64(procs*10_000)
	if perOp > 0.01 {
		t.Errorf("coordinator allocates %.4f allocs per steady-state op (short run %.0f, long run %.0f), want ~0",
			perOp, short, long)
	}
}

// BenchmarkCoordinatorOps measures the coordinator alone — a flat
// memory model, so ns/op is the cost of one posted-and-served
// operation: slot write, coroutine switch, heap push/pop, release.
func BenchmarkCoordinatorOps(b *testing.B) {
	const procs = 4
	b.ReportAllocs()
	perProc := b.N/procs + 1
	b.ResetTimer()
	Run(procs, &flatMemory{lat: 3}, DefaultSyncCosts(), opsBody(perProc))
}
