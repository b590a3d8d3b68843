//go:build go1.23

// iter.Pull needs Go 1.23 while go.mod stays at go 1.22: the nested
// perfbench module declares the same line, and raising only this one
// breaks its build. The constraint raises this file's language version
// so that go vet accepts iter.Pull; the two go lines should move to
// 1.23 together, and this constraint go with them.

// Package mpsim is an execution-driven multiprocessor simulator in the
// style of the CacheMire Test Bench used by the paper (Section 6.1):
// the parallel workloads really execute (as Go code, one coroutine per
// simulated processor), and every shared-memory reference is routed
// through an architecture timing model that delays the issuing
// processor by the appropriate latency.
//
// Timing model: each processor has a virtual clock. Memory operations
// are admitted in global virtual-time order (a conservative
// discrete-event scheme): no operation is serviced until every
// released processor has posted its next one, and the operation with
// the smallest timestamp (ties broken by processor id) goes first —
// which makes simulations deterministic regardless of host scheduling.
// Locks and barriers are modelled in the same admission step with
// round-trip costs on the scale of the paper's remote operations.
//
// Admission structure: each body runs as an iter.Pull coroutine whose
// yield means "posted an operation". One driver loop in Run resumes
// released processors in release order and, once none is left to
// post, serves the minimum of a (virtual time, processor id) heap;
// serving an operation releases its processor (or, for locks and
// barriers, whichever processors the operation unblocks). A body whose
// operation is below the heap minimum while no other released body is
// still to post serves it inline through the same serve step, and
// keeps running without a coroutine switch when that step released
// only itself — so single-processor runs and serialised phases of
// multiprocessor runs cost no switch per operation, and the global
// service order is exactly the one the driver would have produced.
// Posted operations live in per-processor preallocated slots, so the
// hot path is allocation-free.
//
// Concurrency invariant: exactly one body or the driver executes at a
// time, by construction — coroutine switches are the only handoff,
// also after lock handoffs and barrier releases, which resume the
// released bodies one after another. Workload code may therefore
// update shared host-side data (matrices, particle arrays) without
// additional locking.
package mpsim

import (
	"errors"
	"fmt"
	"iter"
	"sort"

	"repro/internal/obs"
)

// Memory is the architecture timing model (implemented by
// internal/coherence.Machine).
type Memory interface {
	// Access services one reference and returns its latency in cycles.
	Access(proc int, addr uint64, write bool) uint64
}

// TimedMemory is an optional extension: models that track global time
// (e.g. protocol-engine occupancy) receive the issuing processor's
// virtual clock. When a Memory also implements TimedMemory, the
// simulator calls AccessAt instead of Access.
type TimedMemory interface {
	AccessAt(proc int, addr uint64, write bool, now uint64) uint64
}

// SyncCosts parameterises synchronisation latencies.
type SyncCosts struct {
	LockAcquire uint64 // uncontended lock acquire round trip
	LockHandoff uint64 // handoff to the next waiter
	Barrier     uint64 // barrier release after the last arrival
}

// DefaultSyncCosts uses the paper's remote round-trip scale (Table 6).
func DefaultSyncCosts() SyncCosts {
	return SyncCosts{LockAcquire: 80, LockHandoff: 80, Barrier: 80}
}

// Proc is a simulated processor handle passed to workload bodies.
// All methods must be called only from the body's own coroutine.
type Proc struct {
	ID int
	N  int // total processors

	sim     *sim
	pending uint64 // accumulated compute cycles not yet posted
	yield   func(struct{}) bool
}

// Read issues a shared-memory load.
func (p *Proc) Read(addr uint64) {
	p.op(opAccess, addr, false, 0)
}

// Write issues a shared-memory store.
func (p *Proc) Write(addr uint64) {
	p.op(opAccess, addr, true, 0)
}

// Compute advances the processor's clock by n cycles of local work.
// It is cheap (no synchronisation) — the time is folded into the next
// memory or synchronisation operation.
func (p *Proc) Compute(n uint64) { p.pending += n }

// Lock acquires the numbered lock (FIFO, with handoff latency).
// Lock ids must be small non-negative integers.
func (p *Proc) Lock(id int) { p.op(opLock, 0, false, id) }

// Unlock releases the numbered lock.
func (p *Proc) Unlock(id int) { p.op(opUnlock, 0, false, id) }

// Barrier joins the global barrier across all processors.
func (p *Proc) Barrier() { p.op(opBarrier, 0, false, 0) }

type opKind uint8

const (
	opAccess opKind = iota
	opLock
	opUnlock
	opBarrier
	opDone
)

// request is one posted operation. Each processor owns one slot in
// sim.slots for its lifetime, so no request is ever copied or
// heap-allocated per operation.
type request struct {
	kind   opKind
	write  bool
	addr   uint64
	lockID int
}

// errStopped is raised in a body whose coroutine Run stops while
// unwinding a panic; Run's cleanup recovers it.
var errStopped = errors.New("mpsim: processor stopped")

// op posts one operation. When nothing can still post an earlier one
// it is served inline, and the body keeps running if that released
// only itself; otherwise the body suspends until the driver resumes it
// with the operation served.
func (p *Proc) op(kind opKind, addr uint64, write bool, lockID int) {
	s := p.sim
	pid := int32(p.ID)
	s.slots[pid] = request{kind: kind, write: write, addr: addr, lockID: lockID}
	s.time[pid] += p.pending
	p.pending = 0
	if len(s.ready) == 0 && (len(s.heap) == 0 || s.less(pid, s.heap[0])) {
		s.serve(pid)
		if len(s.ready) == 1 && s.ready[0] == pid {
			s.ready = s.ready[:0]
			if kind != opDone {
				s.coord.SelfServes++
			}
			return
		}
	} else {
		s.push(pid)
	}
	if kind != opDone {
		s.coord.AwaitParks++
	}
	if !p.yield(struct{}{}) {
		panic(errStopped)
	}
}

// Result summarises one simulation run.
type Result struct {
	Procs      int
	Cycles     uint64   // completion time (max processor clock)
	ProcCycles []uint64 // per-processor finish times
	Accesses   int64
	LockOps    int64
	Barriers   int64
	Coord      CoordStats
}

// CoordStats is the admission machinery's own accounting: how
// operations were served (inline by a body that kept running vs. one
// that suspended), how often the driver resumed a body, and how deep
// the admission heap got. It is bookkeeping about the simulator, not
// the simulated machine; every field is deterministic.
// SelfServes + AwaitParks counts every access, lock operation and
// barrier arrival exactly once.
type CoordStats struct {
	SelfServes   int64 // operations served inline while the body kept running
	Grants       int64 // bodies the driver resumed after serving their operation
	AwaitParks   int64 // operations on which the body suspended
	MaxHeapDepth int   // admission heap high-water mark
}

// Publish adds the coordinator accounting to reg's "mpsim" family
// (counters accumulate across runs; the heap depth is a high-water
// gauge). A nil registry is a no-op.
func (c CoordStats) Publish(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("mpsim", "self_serves").Add(c.SelfServes)
	reg.Counter("mpsim", "grants").Add(c.Grants)
	reg.Counter("mpsim", "await_parks").Add(c.AwaitParks)
	reg.Gauge("mpsim", "heap_depth_max").SetMax(int64(c.MaxHeapDepth))
}

// Imbalance returns the load imbalance: max finish time over mean
// finish time (1.0 = perfectly balanced). A high value means barriers
// and partitioning, not the memory system, bound the run.
func (r Result) Imbalance() float64 {
	if len(r.ProcCycles) == 0 || r.Cycles == 0 {
		return 1
	}
	var sum uint64
	for _, t := range r.ProcCycles {
		sum += t
	}
	mean := float64(sum) / float64(len(r.ProcCycles))
	if mean == 0 {
		return 1
	}
	return float64(r.Cycles) / mean
}

// sim is the coordinator state. Only one body or the driver runs at a
// time, so it needs no synchronisation.
type sim struct {
	mem   Memory
	tmem  TimedMemory // non-nil when mem implements TimedMemory
	costs SyncCosts

	slots []request // per-proc posted-operation slots
	time  []uint64
	heap  []int32 // min-heap of posted procs keyed by (time, proc id)
	ready []int32 // released procs not yet resumed, in release order
	alive int     // procs that have not finished

	locks []lockState // keyed by lock id
	bar   barrierState

	accesses int64
	lockOps  int64
	barriers int64
	coord    CoordStats
}

type lockState struct {
	held     bool
	owner    int32
	lastFree uint64  // virtual time the lock was last released
	waiters  []int32 // FIFO of blocked proc ids
}

type barrierState struct {
	waiting []int32 // arrived (blocked) proc ids; len() is the arrival count
	maxTime uint64
}

// Run executes body on n simulated processors over the memory model.
// It returns when every body has finished. A panic in a body, a
// deadlock, or lock misuse is re-raised to the caller after every
// other body's coroutine has been stopped; iter.Pull re-raises a
// body's panic from the driver, so its stack is the driver's, not the
// body's.
func Run(n int, mem Memory, costs SyncCosts, body func(p *Proc)) Result {
	if n < 1 {
		panic("mpsim: need at least one processor")
	}
	s := &sim{
		mem:   mem,
		costs: costs,
		slots: make([]request, n),
		time:  make([]uint64, n),
		heap:  make([]int32, 0, n),
		ready: make([]int32, 0, n),
		bar:   barrierState{waiting: make([]int32, 0, n)},
		alive: n,
		// The first resume of each body starts it; it is no grant.
		coord: CoordStats{Grants: -int64(n)},
	}
	s.tmem, _ = mem.(TimedMemory)
	next := make([]func() (struct{}, bool), n)
	stops := make([]func(), n)
	for i := range next {
		p := &Proc{ID: i, N: n, sim: s}
		next[i], stops[i] = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			body(p)
			p.op(opDone, 0, false, 0)
		})
		s.ready = append(s.ready, int32(i))
	}
	finished := false
	defer func() {
		if finished {
			return
		}
		// Unwinding a panic: stopping a suspended body makes its yield
		// return false, so it panics with errStopped, which stop
		// re-raises here. That, or anything else a stopping body raises,
		// is dropped in favour of the panic already unwinding.
		for _, stop := range stops {
			func() {
				defer func() { _ = recover() }()
				stop()
			}()
		}
	}()

	for {
		if len(s.ready) > 0 {
			pid := s.ready[0]
			s.ready = s.ready[:copy(s.ready, s.ready[1:])]
			s.coord.Grants++
			next[pid]()
			continue
		}
		if len(s.heap) == 0 {
			if s.alive == 0 {
				break
			}
			// Everyone alive is blocked: this is a workload deadlock
			// (e.g. a barrier not joined by all procs). Fail loudly.
			panic("mpsim: deadlock — all processors blocked")
		}
		s.serve(s.pop())
	}
	finished = true

	res := Result{
		Procs:      n,
		ProcCycles: s.time,
		Accesses:   s.accesses,
		LockOps:    s.lockOps,
		Barriers:   s.barriers,
		Coord:      s.coord,
	}
	for _, t := range s.time {
		if t > res.Cycles {
			res.Cycles = t
		}
	}
	return res
}

// less orders posted procs by (virtual time, proc id) — the admission
// order the package doc promises.
func (s *sim) less(a, b int32) bool {
	ta, tb := s.time[a], s.time[b]
	return ta < tb || (ta == tb && a < b)
}

// push adds a posted proc to the admission heap. The backing array is
// preallocated to n, so steady-state pushes never allocate.
func (s *sim) push(pid int32) {
	h := append(s.heap, pid)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	s.heap = h
	if len(h) > s.coord.MaxHeapDepth {
		s.coord.MaxHeapDepth = len(h)
	}
}

// pop removes and returns the earliest posted proc.
func (s *sim) pop() int32 {
	h := s.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && s.less(h[l], h[min]) {
			min = l
		}
		if r < len(h) && s.less(h[r], h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	s.heap = h
	return top
}

// release queues pid to resume its body once its operation is served.
func (s *sim) release(pid int32) { s.ready = append(s.ready, pid) }

// lock returns the state for the lock id, growing the slot table on
// first use (lock ids are dense small integers in every workload).
func (s *sim) lock(id int) *lockState {
	if id < 0 {
		panic(fmt.Sprintf("mpsim: negative lock id %d", id))
	}
	for len(s.locks) <= id {
		s.locks = append(s.locks, lockState{})
	}
	return &s.locks[id]
}

// serve admits pid's posted operation at its virtual time and releases
// whichever processors it unblocks.
func (s *sim) serve(pid int32) {
	r := &s.slots[pid]
	switch r.kind {
	case opAccess:
		var lat uint64
		if s.tmem != nil {
			lat = s.tmem.AccessAt(int(pid), r.addr, r.write, s.time[pid])
		} else {
			lat = s.mem.Access(int(pid), r.addr, r.write)
		}
		s.time[pid] += lat
		s.accesses++
		s.release(pid)

	case opLock:
		s.lockOps++
		l := s.lock(r.lockID)
		if !l.held {
			l.held = true
			l.owner = pid
			t := s.time[pid]
			if l.lastFree > t {
				t = l.lastFree
			}
			s.time[pid] = t + s.costs.LockAcquire
			s.release(pid)
			return
		}
		// Block until handoff: the proc posts nothing more until the
		// lock holder releases it.
		l.waiters = append(l.waiters, pid)

	case opUnlock:
		s.lockOps++
		l := s.lock(r.lockID)
		if !l.held || l.owner != pid {
			panic(fmt.Sprintf("mpsim: proc %d unlocking lock %d it does not hold",
				pid, r.lockID))
		}
		now := s.time[pid]
		l.lastFree = now
		if len(l.waiters) > 0 {
			w := l.waiters[0]
			l.waiters = l.waiters[:copy(l.waiters, l.waiters[1:])]
			l.owner = w
			t := s.time[w]
			if now > t {
				t = now
			}
			s.time[w] = t + s.costs.LockHandoff
			s.release(w)
		} else {
			l.held = false
		}
		s.release(pid)

	case opBarrier:
		s.barriers++
		s.bar.waiting = append(s.bar.waiting, pid)
		if s.time[pid] > s.bar.maxTime {
			s.bar.maxTime = s.time[pid]
		}
		if len(s.bar.waiting) >= s.alive {
			s.releaseBarrier()
		}

	case opDone:
		s.alive--
		s.release(pid) // resumed only to return from the body
		// A processor finishing can complete a barrier among the
		// remaining ones.
		if len(s.bar.waiting) > 0 && len(s.bar.waiting) >= s.alive {
			s.releaseBarrier()
		}
	}
}

// releaseBarrier releases all current barrier waiters at the barrier
// completion time.
func (s *sim) releaseBarrier() {
	release := s.bar.maxTime + s.costs.Barrier
	for _, w := range s.bar.waiting {
		s.time[w] = release
		s.release(w)
	}
	s.bar.waiting = s.bar.waiting[:0]
	s.bar.maxTime = 0
}

// Speedup computes relative speedups from a series of Results ordered
// by processor count, normalised to the first entry.
func Speedup(results []Result) []float64 {
	out := make([]float64, len(results))
	if len(results) == 0 || results[0].Cycles == 0 {
		return out
	}
	base := float64(results[0].Cycles)
	for i, r := range results {
		if r.Cycles > 0 {
			out[i] = base / float64(r.Cycles)
		}
	}
	return out
}

// SortByProcs sorts results by processor count (helper for reports).
func SortByProcs(rs []Result) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Procs < rs[j].Procs })
}
