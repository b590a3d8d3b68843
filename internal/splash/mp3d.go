package splash

import (
	"repro/internal/coherence"
	"repro/internal/mpsim"
)

// runMP3D simulates the SPLASH wind-tunnel code's communication
// structure: particles are statically partitioned (64 B records placed
// with their owner); each step every particle moves through a shared
// 3-D space array whose cells count occupancy and mediate collisions.
// The space cells are written by whichever processor's particle lands
// there, producing the heavy invalidation traffic that makes MP3D the
// classic coherence stress test.
func runMP3D(nproc int, m *coherence.Machine, sz Size) mpsim.Result {
	nPart := sz.MP3DParticles
	steps := sz.MP3DSteps
	const dim = 16 // 16^3 space cells
	nCells := dim * dim * dim

	// Particle state: position (3) + velocity (3) + padding = 64 B.
	type particle struct {
		x, y, z    float64
		vx, vy, vz float64
	}
	parts := make([]particle, nPart)
	for i := range parts {
		parts[i] = particle{
			x:  float64(i%dim) + 0.3,
			y:  float64((i/dim)%dim) + 0.6,
			z:  float64((i/dim/dim)%dim) + 0.1,
			vx: float64(i%7-3) * 0.29,
			vy: float64(i%5-2) * 0.41,
			vz: float64(i%3-1) * 0.53,
		}
	}
	cells := make([]int64, nCells)

	partArr := array{base: mp3dBase, elem: 64}
	cellArr := array{base: mp3dBase + auxOffset, elem: 8}

	perProc := (nPart + nproc - 1) / nproc
	for pid := 0; pid < nproc; pid++ {
		lo := pid * perProc
		if lo >= nPart {
			break
		}
		m.Place(partArr.at(lo), uint64(perProc)*64, pid)
	}
	// Space cells stay page-interleaved (they belong to no processor).

	wrap := func(v float64) float64 {
		for v < 0 {
			v += dim
		}
		for v >= dim {
			v -= dim
		}
		return v
	}

	body := func(p *mpsim.Proc) {
		lo := p.ID * perProc
		hi := min(lo+perProc, nPart)
		for s := 0; s < steps; s++ {
			for i := lo; i < hi; i++ {
				// Read and advance the particle (two 32 B blocks).
				partArr.readElems(p, i, 1)
				pt := &parts[i]
				pt.x = wrap(pt.x + pt.vx)
				pt.y = wrap(pt.y + pt.vy)
				pt.z = wrap(pt.z + pt.vz)
				p.Compute(6)
				partArr.writeElems(p, i, 1)

				// Collide through the shared space cell.
				cell := int(pt.x) + dim*int(pt.y) + dim*dim*int(pt.z)
				cellArr.readElems(p, cell, 1)
				cells[cell]++ // benign counter; ownership serialised below
				p.Compute(2)
				cellArr.writeElems(p, cell, 1)
				if cells[cell]%7 == 0 {
					// Collision: perturb velocity deterministically.
					pt.vx, pt.vy = pt.vy, -pt.vx
				}
			}
			p.Barrier()
		}
	}
	// cells is incremented by whichever processor's particle lands in a
	// cell. This is safe without extra locking: mpsim serialises worker
	// compute sections (exactly one body coroutine runs at a time), so
	// host-side updates are totally ordered even though the *simulated*
	// accesses contend and invalidate.
	return mpsim.Run(nproc, m, m.Lat.SyncCosts(), body)
}
