// Package gspn implements Generalized Stochastic Petri Nets evaluated by
// Monte-Carlo discrete-event simulation, the modelling formalism the
// paper uses for its CPI analysis (Section 5.5, citing Marsan & Conti).
//
// Supported net elements:
//
//   - places with integer markings,
//   - immediate transitions (zero delay) with firing weights and
//     priorities for conflict resolution,
//   - deterministically timed transitions (fixed delay, e.g. a DRAM
//     access taking exactly 6 cycles),
//   - exponentially timed transitions (rate λ, e.g. transition T23 of
//     Figure 10 modelling scoreboard stalls),
//   - input, output, and inhibitor arcs with multiplicities.
//
// Timed transitions follow race semantics with resampling ("race with
// restart"): a transition samples its firing time when it becomes
// enabled and abandons it if disabled before firing. The nets used by
// internal/cpumodel never disable an in-flight timed transition, so the
// choice of memory policy does not affect their results; it is
// documented here for completeness.
//
// Immediate transitions take priority over timed ones: whenever any
// immediate transition is enabled, the marking is vanishing and one
// enabled immediate transition (highest priority class first, then
// weighted-random within the class) fires without advancing time.
//
// The event loop is incremental: a firing costs work in proportion to
// the places it touched, not to the size of the net. A Sim keeps one
// enabled-set per immediate priority class, the set of scheduled timed
// transitions, and the set of marked places, and after each firing it
// re-checks only the transitions that read a touched place. The random
// stream is consumed exactly as a whole-net scan would consume it: one
// Float64 per immediate pick, summed and walked over the enabled
// transitions of the top class in ascending id; then one ExpFloat64 per
// newly enabled exponential transition, in ascending id. Ties between
// timed transitions go to the lowest id. For a fixed seed every firing,
// marking and time average is bit-identical to the whole-net reference
// stepper the tests keep (TestRescheduleEquivalence).
package gspn

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
)

// PlaceID identifies a place within its Net.
type PlaceID int

// TransID identifies a transition within its Net.
type TransID int

// Kind is the transition timing class.
type Kind uint8

// Transition kinds.
const (
	Immediate Kind = iota
	Deterministic
	Exponential
)

func (k Kind) String() string {
	switch k {
	case Immediate:
		return "immediate"
	case Deterministic:
		return "deterministic"
	case Exponential:
		return "exponential"
	default:
		return "unknown"
	}
}

type arc struct {
	place PlaceID
	mult  int
}

type place struct {
	name    string
	initial int
}

type transition struct {
	name     string
	kind     Kind
	delay    float64 // Deterministic
	rate     float64 // Exponential
	weight   float64 // Immediate conflict resolution
	priority int     // Immediate: higher fires first
	in       []arc
	out      []arc
	inhibit  []arc
}

// Net is an immutable-after-build Petri net structure. Build the net
// with Place/Immediate/Timed/Exponential and the arc methods, then
// create Sims from it; one Net can back many concurrent Sims. The first
// NewSim seals the net: any later edit panics.
type Net struct {
	places []place
	trans  []transition
	sealed bool

	// Derived once on the first NewSim and read-only afterwards.
	sealOnce sync.Once
	// dep.of(p) lists the timed transitions whose enabling condition
	// reads place p (an input or inhibitor arc), idep.of(p) the immediate
	// ones; both ascending and deduplicated. A Sim re-checks only the
	// transitions that read a place the last firing changed.
	dep, idep adjacency
	// prios holds the distinct immediate priorities, highest first, and
	// class[t] is immediate t's index into prios (-1 for timed ones).
	prios  []int
	class  []int32
	weight []float64 // per transition, dense for the settle loop
	// maxTouched and maxAffected bound one firing's changed places and
	// candidate timed transitions, so a Sim's scratch never grows.
	maxTouched, maxAffected int
}

// adjacency maps a place to transitions in compressed-row form: place
// p's list is list[start[p]:start[p+1]].
type adjacency struct {
	start []int32
	list  []int32
}

func (a *adjacency) of(p int32) []int32 { return a.list[a.start[p]:a.start[p+1]] }

// seal freezes the net and derives the adjacencies and priority
// classes. Iterating transitions in ascending id keeps every list
// ascending, which the incremental reschedule relies on to sample newly
// enabled transitions in the same order as a full scan (RNG-stream
// equivalence).
func (n *Net) seal() {
	n.sealed = true
	np := len(n.places)
	n.dep.start = make([]int32, np+1)
	n.idep.start = make([]int32, np+1)
	// last[p] is the transition that most recently listed p, so a place
	// read twice by one transition is listed once.
	last := make([]int32, np)
	reads := func(visit func(a *adjacency, p PlaceID, t int32)) {
		for p := range last {
			last[p] = -1
		}
		for ti := range n.trans {
			tr := &n.trans[ti]
			a := &n.dep
			if tr.kind == Immediate {
				a = &n.idep
			}
			for _, arcs := range [2][]arc{tr.in, tr.inhibit} {
				for _, x := range arcs {
					if last[x.place] != int32(ti) {
						last[x.place] = int32(ti)
						visit(a, x.place, int32(ti))
					}
				}
			}
		}
	}
	// Count, prefix-sum, then fill using start[p] as p's cursor, which
	// leaves start[p] at p's end; shifting by one restores the starts.
	reads(func(a *adjacency, p PlaceID, _ int32) { a.start[p+1]++ })
	for _, a := range [2]*adjacency{&n.dep, &n.idep} {
		for p := 0; p < np; p++ {
			a.start[p+1] += a.start[p]
		}
		a.list = make([]int32, a.start[np])
	}
	reads(func(a *adjacency, p PlaceID, t int32) {
		a.list[a.start[p]] = t
		a.start[p]++
	})
	for _, a := range [2]*adjacency{&n.dep, &n.idep} {
		copy(a.start[1:], a.start[:np])
		a.start[0] = 0
	}

	for ti := range n.trans {
		if tr := &n.trans[ti]; tr.kind == Immediate && !slices.Contains(n.prios, tr.priority) {
			n.prios = append(n.prios, tr.priority)
		}
	}
	slices.Sort(n.prios)
	slices.Reverse(n.prios)
	n.class = make([]int32, len(n.trans))
	n.weight = make([]float64, len(n.trans))
	for ti := range n.trans {
		tr := &n.trans[ti]
		n.class[ti] = -1
		if tr.kind == Immediate {
			n.class[ti] = int32(slices.Index(n.prios, tr.priority))
		}
		n.weight[ti] = tr.weight
		affected := 1 // the fired transition itself
		for _, arcs := range [2][]arc{tr.in, tr.out} {
			for _, x := range arcs {
				affected += len(n.dep.of(int32(x.place)))
			}
		}
		n.maxTouched = max(n.maxTouched, len(tr.in)+len(tr.out))
		n.maxAffected = max(n.maxAffected, affected)
	}
}

// mutable panics once the net is sealed: a Sim's adjacencies and
// priority classes would silently go stale.
func (n *Net) mutable() {
	if n.sealed {
		panic("gspn: net modified after NewSim")
	}
}

// NewNet returns an empty net.
func NewNet() *Net { return &Net{} }

// Place adds a place with an initial marking and returns its id.
func (n *Net) Place(name string, initial int) PlaceID {
	n.mutable()
	if initial < 0 {
		panic(fmt.Sprintf("gspn: place %s: negative initial marking", name))
	}
	n.places = append(n.places, place{name: name, initial: initial})
	return PlaceID(len(n.places) - 1)
}

// Immediate adds an immediate transition. Weight resolves conflicts
// among enabled immediate transitions of the same priority; priority
// classes fire strictly highest-first.
func (n *Net) Immediate(name string, weight float64, priority int) TransID {
	n.mutable()
	if weight <= 0 {
		panic(fmt.Sprintf("gspn: transition %s: weight must be positive", name))
	}
	n.trans = append(n.trans, transition{
		name: name, kind: Immediate, weight: weight, priority: priority,
	})
	return TransID(len(n.trans) - 1)
}

// Timed adds a deterministically timed transition with a fixed delay.
func (n *Net) Timed(name string, delay float64) TransID {
	n.mutable()
	if delay <= 0 {
		panic(fmt.Sprintf("gspn: transition %s: delay must be positive", name))
	}
	n.trans = append(n.trans, transition{name: name, kind: Deterministic, delay: delay})
	return TransID(len(n.trans) - 1)
}

// Exponential adds an exponentially timed transition with the given
// rate (mean delay 1/rate).
func (n *Net) Exponential(name string, rate float64) TransID {
	n.mutable()
	if rate <= 0 {
		panic(fmt.Sprintf("gspn: transition %s: rate must be positive", name))
	}
	n.trans = append(n.trans, transition{name: name, kind: Exponential, rate: rate})
	return TransID(len(n.trans) - 1)
}

// In adds an input arc: firing t consumes mult tokens from p.
func (n *Net) In(t TransID, p PlaceID, mult int) {
	n.checkArc(t, p, mult)
	n.trans[t].in = append(n.trans[t].in, arc{p, mult})
}

// Out adds an output arc: firing t deposits mult tokens into p.
func (n *Net) Out(t TransID, p PlaceID, mult int) {
	n.checkArc(t, p, mult)
	n.trans[t].out = append(n.trans[t].out, arc{p, mult})
}

// Inhibit adds an inhibitor arc: t is disabled while p holds >= mult
// tokens.
func (n *Net) Inhibit(t TransID, p PlaceID, mult int) {
	n.checkArc(t, p, mult)
	n.trans[t].inhibit = append(n.trans[t].inhibit, arc{p, mult})
}

func (n *Net) checkArc(t TransID, p PlaceID, mult int) {
	n.mutable()
	if int(t) < 0 || int(t) >= len(n.trans) {
		panic("gspn: arc references unknown transition")
	}
	if int(p) < 0 || int(p) >= len(n.places) {
		panic("gspn: arc references unknown place")
	}
	if mult < 1 {
		panic("gspn: arc multiplicity must be >= 1")
	}
}

// PlaceName returns the place's name.
func (n *Net) PlaceName(p PlaceID) string { return n.places[p].name }

// TransName returns the transition's name.
func (n *Net) TransName(t TransID) string { return n.trans[t].name }

// NumPlaces returns the number of places.
func (n *Net) NumPlaces() int { return len(n.places) }

// NumTrans returns the number of transitions.
func (n *Net) NumTrans() int { return len(n.trans) }

// ErrLivelock is returned when immediate transitions fire more than the
// livelock bound without reaching a tangible marking — an immediate
// cycle in the net.
var ErrLivelock = errors.New("gspn: immediate-transition livelock")

// ErrDeadlock is returned by Step when no transition is enabled.
var ErrDeadlock = errors.New("gspn: deadlock (no enabled transitions)")

// maxImmediateChain bounds consecutive immediate firings per event.
const maxImmediateChain = 1 << 16

// Sim is one Monte-Carlo run of a Net.
type Sim struct {
	net     *Net
	rng     *rand.Rand
	marking []int
	sched   []float64 // absolute firing time per timed transition; +Inf = unscheduled
	now     float64

	firings []int64
	tokTime []float64 // ∫ marking dt per place
	lastT   float64

	// imm holds one enabled-bitset per immediate priority class, in
	// Net.prios order, each words long and indexed by transition id.
	imm    []uint64
	words  int
	live   idSet // timed transitions with a scheduled firing time
	marked idSet // places holding at least one token

	touched  []int32 // places whose marking changed since the last update
	affected []int32 // scratch for update
}

// idSet is a set of small non-negative ids with O(1) insert and delete:
// ids in no particular order, pos[id] its index there or -1.
type idSet struct {
	ids []int32
	pos []int32
}

// set makes id a member or not.
func (q *idSet) set(id int32, in bool) {
	switch k := q.pos[id]; {
	case in && k < 0:
		q.pos[id] = int32(len(q.ids))
		q.ids = append(q.ids, id)
	case !in && k >= 0:
		last := q.ids[len(q.ids)-1]
		q.ids[k] = last
		q.pos[last] = k
		q.ids = q.ids[:len(q.ids)-1]
		q.pos[id] = -1
	}
}

// newIDSet carves an empty set over ids [0, n) from the front of slab
// and returns the rest of the slab.
func newIDSet(slab []int32, n int) (idSet, []int32) {
	q := idSet{ids: slab[:0:n], pos: slab[n : 2*n : 2*n]}
	for i := range q.pos {
		q.pos[i] = -1
	}
	return q, slab[2*n:]
}

// NewSim creates a simulation of the net with the given random seed.
func NewSim(n *Net, seed int64) *Sim {
	n.sealOnce.Do(n.seal)
	nt, np := len(n.trans), len(n.places)
	words := (nt + 63) / 64
	// One slab per element type holds all the per-Sim state, sized so
	// that stepping never allocates.
	floats := make([]float64, nt+np)
	slab := make([]int32, 2*nt+2*np+n.maxTouched+n.maxAffected)
	s := &Sim{
		net:     n,
		rng:     rand.New(rand.NewSource(seed)),
		marking: make([]int, np),
		sched:   floats[:nt:nt],
		tokTime: floats[nt:],
		firings: make([]int64, nt),
		imm:     make([]uint64, len(n.prios)*words),
		words:   words,
	}
	s.live, slab = newIDSet(slab, nt)
	s.marked, slab = newIDSet(slab, np)
	s.touched = slab[:0:n.maxTouched]
	s.affected = slab[n.maxTouched:n.maxTouched]
	for i, p := range n.places {
		s.marking[i] = p.initial
		s.marked.set(int32(i), p.initial != 0)
	}
	for i := range s.sched {
		s.sched[i] = math.Inf(1)
	}
	for i := range n.trans {
		if tr := &n.trans[i]; tr.kind == Immediate {
			s.setImm(int32(i), s.enabled(TransID(i)))
		} else {
			s.applySchedule(TransID(i), tr)
		}
	}
	return s
}

// Now returns the current simulation time.
func (s *Sim) Now() float64 { return s.now }

// Marking returns the current token count of a place.
func (s *Sim) Marking(p PlaceID) int { return s.marking[p] }

// Firings returns how many times a transition has fired.
func (s *Sim) Firings(t TransID) int64 { return s.firings[t] }

// TimeAvgTokens returns the time-averaged token count of a place.
func (s *Sim) TimeAvgTokens(p PlaceID) float64 {
	if s.now == 0 {
		return float64(s.marking[p])
	}
	return s.tokTime[p] / s.now
}

// enabled reports whether transition t may fire in the current marking.
func (s *Sim) enabled(t TransID) bool {
	tr := &s.net.trans[t]
	for _, a := range tr.in {
		if s.marking[a.place] < a.mult {
			return false
		}
	}
	for _, a := range tr.inhibit {
		if s.marking[a.place] >= a.mult {
			return false
		}
	}
	return true
}

// setImm records whether immediate transition t is enabled.
func (s *Sim) setImm(t int32, en bool) {
	w := &s.imm[int(s.net.class[t])*s.words+int(t>>6)]
	if en {
		*w |= 1 << (t & 63)
	} else {
		*w &^= 1 << (t & 63)
	}
}

// fire consumes and produces tokens for transition t, recording the
// places it changed for the next update.
func (s *Sim) fire(t TransID) {
	tr := &s.net.trans[t]
	for _, a := range tr.in {
		s.addTokens(a.place, -a.mult)
	}
	for _, a := range tr.out {
		s.addTokens(a.place, a.mult)
	}
	s.firings[t]++
}

// addTokens changes p's marking by d, keeping the marked set current.
func (s *Sim) addTokens(p PlaceID, d int) {
	old := s.marking[p]
	s.marking[p] = old + d
	if (old == 0) != (old+d == 0) {
		s.marked.set(int32(p), old+d != 0)
	}
	s.touched = append(s.touched, int32(p))
}

// applySchedule re-derives one timed transition's schedule: sample a
// firing time when newly enabled, cancel when newly disabled.
func (s *Sim) applySchedule(t TransID, tr *transition) {
	en := s.enabled(t)
	switch {
	case en && math.IsInf(s.sched[t], 1):
		s.sched[t] = s.now + s.sample(tr)
	case !en && !math.IsInf(s.sched[t], 1):
		s.sched[t] = math.Inf(1)
	default:
		return
	}
	// A sample that overflows to +Inf leaves t unscheduled.
	s.live.set(int32(t), !math.IsInf(s.sched[t], 1))
}

// update brings the enabled-sets and schedules up to date after a
// firing. Only transitions with an input or inhibitor arc on a place
// the firing changed can have flipped their enabling, so only those are
// re-checked — plus the just-fired timed transition itself (fired >= 0),
// which must resample even when it has no input arcs at all (a source
// transition is in no dep list). Timed candidates are processed in
// ascending id order after deduplication, so the exponential
// transitions that sample here consume the RNG stream in exactly the
// order a full rescan would.
func (s *Sim) update(fired TransID) {
	n := s.net
	aff := s.affected[:0]
	for _, p := range s.touched {
		for _, t := range n.idep.of(p) {
			s.setImm(t, s.enabled(TransID(t)))
		}
		aff = append(aff, n.dep.of(p)...)
	}
	s.touched = s.touched[:0]
	if fired >= 0 {
		aff = append(aff, int32(fired))
	}
	// Insertion sort: the affected sets of the cpumodel nets are a
	// handful of entries, and sort.Slice would allocate its closure on
	// every event.
	for i := 1; i < len(aff); i++ {
		for j := i; j > 0 && aff[j] < aff[j-1]; j-- {
			aff[j], aff[j-1] = aff[j-1], aff[j]
		}
	}
	prev := int32(-1)
	for _, t := range aff {
		if t != prev {
			prev = t
			s.applySchedule(TransID(t), &n.trans[t])
		}
	}
}

func (s *Sim) sample(tr *transition) float64 {
	if tr.kind == Deterministic {
		return tr.delay
	}
	return s.rng.ExpFloat64() / tr.rate
}

// topClass returns the enabled-bitset of the highest priority class
// with an enabled transition, or nil in a tangible marking.
func (s *Sim) topClass() []uint64 {
	for c := 0; c < len(s.imm); c += s.words {
		set := s.imm[c : c+s.words]
		for _, w := range set {
			if w != 0 {
				return set
			}
		}
	}
	return nil
}

// settleImmediates fires enabled immediate transitions until none is
// enabled (reaching a tangible marking). Each pick sums the top class's
// weights and walks its members in ascending id; if rounding leaves the
// walk short, nothing fires and the next iteration draws again.
func (s *Sim) settleImmediates() error {
	weight := s.net.weight
	for iter := 0; ; iter++ {
		if iter >= maxImmediateChain {
			return ErrLivelock
		}
		set := s.topClass()
		if set == nil {
			return nil
		}
		var totalW float64
		for i, w := range set {
			for ; w != 0; w &= w - 1 {
				totalW += weight[i<<6|bits.TrailingZeros64(w)]
			}
		}
		pick := s.rng.Float64() * totalW
	walk:
		for i, w := range set {
			for ; w != 0; w &= w - 1 {
				t := i<<6 | bits.TrailingZeros64(w)
				if pick -= weight[t]; pick <= 0 {
					s.fire(TransID(t))
					s.update(-1)
					break walk
				}
			}
		}
	}
}

// accrue integrates token-time up to time t. Unmarked places would
// only add 0·dt, so only marked ones are visited.
func (s *Sim) accrue(t float64) {
	dt := t - s.lastT
	if dt <= 0 {
		return
	}
	for _, p := range s.marked.ids {
		s.tokTime[p] += float64(s.marking[p]) * dt
	}
	s.lastT = t
}

// Step advances the simulation by one tangible event: it settles
// immediate transitions, then fires the earliest scheduled timed
// transition, the lowest id on a tie. It returns ErrDeadlock when
// nothing can fire.
func (s *Sim) Step() error {
	if err := s.settleImmediates(); err != nil {
		return err
	}
	best := int32(-1)
	bestT := math.Inf(1)
	for _, t := range s.live.ids {
		if at := s.sched[t]; at < bestT || (at == bestT && t < best) {
			bestT = at
			best = t
		}
	}
	if best < 0 {
		return ErrDeadlock
	}
	s.accrue(bestT)
	s.now = bestT
	s.sched[best] = math.Inf(1)
	s.live.set(best, false)
	s.fire(TransID(best))
	s.update(TransID(best))
	// Settle any immediates enabled by the firing so observers always
	// see tangible markings.
	return s.settleImmediates()
}

// RunUntilFirings advances the simulation until transition t has fired
// n times (or an error occurs). It is the usual way CPI runs terminate:
// "simulate until N instructions have issued".
func (s *Sim) RunUntilFirings(t TransID, n int64) error {
	for s.firings[t] < n {
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// RunUntilTime advances the simulation until the clock reaches at least
// the given time.
func (s *Sim) RunUntilTime(t float64) error {
	for s.now < t {
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Throughput returns firings of t per unit time.
func (s *Sim) Throughput(t TransID) float64 {
	if s.now == 0 {
		return 0
	}
	return float64(s.firings[t]) / s.now
}

// TransKind returns the transition's timing class.
func (n *Net) TransKind(t TransID) Kind { return n.trans[t].kind }
