package gspn

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestTimedLoopThroughput: a single token cycling through a
// deterministic transition of delay d has throughput exactly 1/d.
func TestTimedLoopThroughput(t *testing.T) {
	n := NewNet()
	p := n.Place("p", 1)
	tr := n.Timed("t", 2.5)
	n.In(tr, p, 1)
	n.Out(tr, p, 1)

	s := NewSim(n, 1)
	if err := s.RunUntilFirings(tr, 1000); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Now(), 2500.0; got != want {
		t.Errorf("time after 1000 firings = %v, want %v", got, want)
	}
	if got := s.Throughput(tr); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("throughput = %v, want 0.4", got)
	}
}

// TestImmediateWeights: a weighted immediate conflict splits tokens in
// proportion to transition weights.
func TestImmediateWeights(t *testing.T) {
	n := NewNet()
	src := n.Place("src", 0)
	a := n.Place("a", 0)
	b := n.Place("b", 0)
	feeder := n.Place("clockTok", 1)
	tick := n.Timed("tick", 1)
	n.In(tick, feeder, 1)
	n.Out(tick, feeder, 1)
	n.Out(tick, src, 1)

	ta := n.Immediate("ta", 3, 0)
	n.In(ta, src, 1)
	n.Out(ta, a, 1)
	tb := n.Immediate("tb", 1, 0)
	n.In(tb, src, 1)
	n.Out(tb, b, 1)

	s := NewSim(n, 42)
	const total = 20000
	if err := s.RunUntilFirings(tick, total); err != nil {
		t.Fatal(err)
	}
	fa := float64(s.Firings(ta))
	frac := fa / float64(s.Firings(ta)+s.Firings(tb))
	if math.Abs(frac-0.75) > 0.02 {
		t.Errorf("weighted split fraction = %v, want 0.75 ± 0.02", frac)
	}
}

// TestImmediatePriority: a higher-priority immediate transition always
// wins a conflict regardless of weight.
func TestImmediatePriority(t *testing.T) {
	n := NewNet()
	src := n.Place("src", 5)
	hi := n.Place("hi", 0)
	lo := n.Place("lo", 0)
	thi := n.Immediate("thi", 0.001, 5)
	n.In(thi, src, 1)
	n.Out(thi, hi, 1)
	tlo := n.Immediate("tlo", 1000, 1)
	n.In(tlo, src, 1)
	n.Out(tlo, lo, 1)
	// A timed transition keeps Step from declaring deadlock after the
	// immediates settle.
	idle := n.Place("idle", 1)
	tt := n.Timed("tt", 1)
	n.In(tt, idle, 1)
	n.Out(tt, idle, 1)

	s := NewSim(n, 7)
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if got := s.Marking(hi); got != 5 {
		t.Errorf("high-priority transition fired %d times, want 5", got)
	}
	if got := s.Marking(lo); got != 0 {
		t.Errorf("low-priority transition fired %d times, want 0", got)
	}
}

// TestExponentialMean: mean inter-firing time of an exponential
// transition approaches 1/rate.
func TestExponentialMean(t *testing.T) {
	n := NewNet()
	p := n.Place("p", 1)
	tr := n.Exponential("t", 4)
	n.In(tr, p, 1)
	n.Out(tr, p, 1)

	s := NewSim(n, 99)
	const fires = 50000
	if err := s.RunUntilFirings(tr, fires); err != nil {
		t.Fatal(err)
	}
	mean := s.Now() / fires
	if math.Abs(mean-0.25) > 0.01 {
		t.Errorf("mean delay = %v, want 0.25 ± 0.01", mean)
	}
}

// TestMM1QueueLength: exponential arrivals (λ) to a single exponential
// server (μ) form an M/M/1 queue; mean number in system is ρ/(1-ρ).
func TestMM1QueueLength(t *testing.T) {
	const lambda, mu = 1.0, 2.0
	n := NewNet()
	arrTok := n.Place("arrTok", 1)
	queue := n.Place("queue", 0)
	arrive := n.Exponential("arrive", lambda)
	n.In(arrive, arrTok, 1)
	n.Out(arrive, arrTok, 1)
	n.Out(arrive, queue, 1)
	serve := n.Exponential("serve", mu)
	n.In(serve, queue, 1)

	s := NewSim(n, 12345)
	if err := s.RunUntilTime(200000); err != nil {
		t.Fatal(err)
	}
	// In this net "queue" counts jobs in system (the job in service
	// keeps its token until service completes).
	want := (lambda / mu) / (1 - lambda/mu) // = 1.0
	got := s.TimeAvgTokens(queue)
	if math.Abs(got-want) > 0.08 {
		t.Errorf("M/M/1 mean jobs in system = %v, want %v ± 0.08", got, want)
	}
}

// TestInhibitorArc: a transition with an inhibitor arc never fires
// while the inhibiting place is marked.
func TestInhibitorArc(t *testing.T) {
	n := NewNet()
	blocker := n.Place("blocker", 1)
	p := n.Place("p", 1)
	out := n.Place("out", 0)
	tr := n.Timed("t", 1)
	n.In(tr, p, 1)
	n.Out(tr, out, 1)
	n.Inhibit(tr, blocker, 1)
	// A second transition drains the blocker at t=5.
	drain := n.Timed("drain", 5)
	n.In(drain, blocker, 1)

	s := NewSim(n, 3)
	if err := s.Step(); err != nil { // must be the drain at t=5
		t.Fatal(err)
	}
	if s.Now() != 5 {
		t.Fatalf("first event at t=%v, want 5 (inhibited transition fired early)", s.Now())
	}
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if s.Marking(out) != 1 || s.Now() != 6 {
		t.Errorf("after unblocking: out=%d at t=%v, want 1 at t=6", s.Marking(out), s.Now())
	}
}

// TestDeadlock: a net with no enabled transitions reports ErrDeadlock.
func TestDeadlock(t *testing.T) {
	n := NewNet()
	p := n.Place("p", 0)
	tr := n.Timed("t", 1)
	n.In(tr, p, 1)
	s := NewSim(n, 1)
	if err := s.Step(); !errors.Is(err, ErrDeadlock) {
		t.Errorf("Step() = %v, want ErrDeadlock", err)
	}
}

// TestLivelock: two immediate transitions feeding each other loop
// forever; the simulator must detect it rather than hang.
func TestLivelock(t *testing.T) {
	n := NewNet()
	a := n.Place("a", 1)
	b := n.Place("b", 0)
	t1 := n.Immediate("t1", 1, 0)
	n.In(t1, a, 1)
	n.Out(t1, b, 1)
	t2 := n.Immediate("t2", 1, 0)
	n.In(t2, b, 1)
	n.Out(t2, a, 1)
	s := NewSim(n, 1)
	if err := s.Step(); !errors.Is(err, ErrLivelock) {
		t.Errorf("Step() = %v, want ErrLivelock", err)
	}
}

// TestArcMultiplicity: a transition requiring 3 tokens fires only when
// all three are present and consumes all of them.
func TestArcMultiplicity(t *testing.T) {
	n := NewNet()
	src := n.Place("src", 0)
	dst := n.Place("dst", 0)
	feederTok := n.Place("ft", 1)
	feed := n.Timed("feed", 1)
	n.In(feed, feederTok, 1)
	n.Out(feed, feederTok, 1)
	n.Out(feed, src, 1)

	gather := n.Immediate("gather", 1, 0)
	n.In(gather, src, 3)
	n.Out(gather, dst, 1)

	s := NewSim(n, 1)
	if err := s.RunUntilFirings(feed, 7); err != nil {
		t.Fatal(err)
	}
	if got := s.Marking(dst); got != 2 {
		t.Errorf("dst = %d after 7 feeds, want 2", got)
	}
	if got := s.Marking(src); got != 1 {
		t.Errorf("src leftover = %d after 7 feeds, want 1", got)
	}
}

// TestDeterministicReproducibility: same seed, same trajectory.
func TestDeterministicReproducibility(t *testing.T) {
	build := func() (*Net, TransID) {
		n := NewNet()
		p := n.Place("p", 1)
		q := n.Place("q", 0)
		t1 := n.Exponential("t1", 1)
		n.In(t1, p, 1)
		n.Out(t1, q, 1)
		t2 := n.Exponential("t2", 2)
		n.In(t2, q, 1)
		n.Out(t2, p, 1)
		return n, t1
	}
	n1, tr1 := build()
	n2, tr2 := build()
	s1 := NewSim(n1, 777)
	s2 := NewSim(n2, 777)
	if err := s1.RunUntilFirings(tr1, 1000); err != nil {
		t.Fatal(err)
	}
	if err := s2.RunUntilFirings(tr2, 1000); err != nil {
		t.Fatal(err)
	}
	if s1.Now() != s2.Now() {
		t.Errorf("same seed diverged: %v vs %v", s1.Now(), s2.Now())
	}
}

// TestTimeAvgTokens: a place holding k tokens forever averages k.
func TestTimeAvgTokens(t *testing.T) {
	n := NewNet()
	constP := n.Place("const", 3)
	p := n.Place("p", 1)
	tr := n.Timed("t", 1)
	n.In(tr, p, 1)
	n.Out(tr, p, 1)
	s := NewSim(n, 1)
	if err := s.RunUntilTime(100); err != nil {
		t.Fatal(err)
	}
	if got := s.TimeAvgTokens(constP); got != 3 {
		t.Errorf("TimeAvgTokens(const) = %v, want 3", got)
	}
}

func TestNamesAndCounts(t *testing.T) {
	n := NewNet()
	p := n.Place("myplace", 1)
	tr := n.Timed("mytrans", 2)
	n.In(tr, p, 1)
	n.Out(tr, p, 1)
	if n.PlaceName(p) != "myplace" || n.TransName(tr) != "mytrans" {
		t.Error("names lost")
	}
	if n.NumPlaces() != 1 || n.NumTrans() != 1 {
		t.Error("counts wrong")
	}
	if n.TransKind(tr) != Deterministic {
		t.Error("kind wrong")
	}
	if Immediate.String() != "immediate" || Exponential.String() != "exponential" ||
		Kind(9).String() != "unknown" {
		t.Error("kind strings")
	}
}

func TestRunUntilTimePropagatesDeadlock(t *testing.T) {
	n := NewNet()
	p := n.Place("p", 1)
	tr := n.Timed("t", 1)
	n.In(tr, p, 1) // fires once, then deadlock
	s := NewSim(n, 1)
	if err := s.RunUntilTime(100); !errors.Is(err, ErrDeadlock) {
		t.Errorf("RunUntilTime = %v, want ErrDeadlock", err)
	}
	if s.Throughput(tr) != 1 {
		t.Errorf("throughput = %v, want 1 (one firing at t=1)", s.Throughput(tr))
	}
}

func TestBuilderPanics(t *testing.T) {
	cases := []func(){
		func() { NewNet().Place("p", -1) },
		func() { NewNet().Immediate("t", 0, 0) },
		func() { NewNet().Timed("t", 0) },
		func() { NewNet().Exponential("t", -1) },
		func() {
			n := NewNet()
			p := n.Place("p", 0)
			n.In(TransID(5), p, 1)
		},
		func() {
			n := NewNet()
			tr := n.Timed("t", 1)
			n.In(tr, PlaceID(9), 1)
		},
		func() {
			n := NewNet()
			p := n.Place("p", 0)
			tr := n.Timed("t", 1)
			n.In(tr, p, 0)
		},
	}
	// Every edit after NewSim panics: the Sim's adjacencies and priority
	// classes were derived from the net as it stood.
	sealed := func(edit func(n *Net, p PlaceID, tr TransID)) func() {
		return func() {
			n := NewNet()
			p := n.Place("p", 1)
			tr := n.Timed("t", 1)
			n.In(tr, p, 1)
			n.Out(tr, p, 1)
			NewSim(n, 1)
			edit(n, p, tr)
		}
	}
	cases = append(cases,
		sealed(func(n *Net, _ PlaceID, _ TransID) { n.Place("q", 0) }),
		sealed(func(n *Net, _ PlaceID, _ TransID) { n.Immediate("i", 1, 0) }),
		sealed(func(n *Net, _ PlaceID, _ TransID) { n.Timed("d", 1) }),
		sealed(func(n *Net, _ PlaceID, _ TransID) { n.Exponential("e", 1) }),
		sealed(func(n *Net, p PlaceID, tr TransID) { n.In(tr, p, 1) }),
		sealed(func(n *Net, p PlaceID, tr TransID) { n.Out(tr, p, 1) }),
		sealed(func(n *Net, p PlaceID, tr TransID) { n.Inhibit(tr, p, 2) }),
	)
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// buildMixedNet is a synthetic net exercising everything the
// incremental reschedule must handle: an exponential source transition
// with no input arcs (in no dependency list — only the fired-transition
// rule reschedules it), deterministic servers, an inhibitor arc,
// weighted immediate conflicts, and a higher-priority immediate class.
func buildMixedNet() *Net {
	n := NewNet()
	q := n.Place("q", 1)
	done := n.Place("done", 0)
	a := n.Place("a", 0)
	bp := n.Place("b", 0)
	maint := n.Place("maint", 0)

	src := n.Exponential("src", 1.0) // source: no inputs at all
	n.Out(src, q, 1)

	srv := n.Timed("srv", 0.8)
	n.In(srv, q, 1)
	n.Out(srv, done, 1)
	n.Inhibit(srv, maint, 2)

	ta := n.Immediate("ta", 3, 0)
	n.In(ta, done, 1)
	n.Out(ta, a, 1)
	tb := n.Immediate("tb", 1, 0)
	n.In(tb, done, 1)
	n.Out(tb, bp, 1)

	tc := n.Immediate("tc", 1, 1) // higher priority: pairs of b -> maint
	n.In(tc, bp, 2)
	n.Out(tc, maint, 1)

	mend := n.Exponential("mend", 0.5)
	n.In(mend, maint, 1)
	n.Out(mend, a, 1)

	drain := n.Timed("drain", 2.0)
	n.In(drain, a, 3)
	return n
}

// buildBankNet is a synthetic memory-bank net in the shape of the
// cpumodel nets but wider: three immediate priority classes, more than
// 64 transitions (so every enabled-set spans several words), equal
// deterministic delays (so timed transitions tie and the lowest id must
// win), an inhibitor on each bank's queue, and an exponential stall
// that samples from the RNG between immediate picks.
func buildBankNet(banks int) *Net {
	n := NewNet()
	cpu := n.Place("cpu", 1)
	decide := n.Place("decide", 0)
	req := n.Place("req", 0)
	out := n.Place("outstanding", 0)
	stalled := n.Place("stalled", 0)
	done := n.Place("done", 0)

	issue := n.Timed("issue", 1)
	n.In(issue, cpu, 1)
	n.Out(issue, decide, 1)
	hit := n.Immediate("hit", 3, 0)
	n.In(hit, decide, 1)
	n.Out(hit, cpu, 1)
	miss := n.Immediate("miss", 1, 0)
	n.In(miss, decide, 1)
	n.Out(miss, cpu, 1)
	n.Out(miss, req, 1)
	n.Out(miss, out, 1)

	for b := 0; b < banks; b++ {
		q := n.Place("q", 0)
		svc := n.Place("svc", 0)
		pre := n.Place("pre", 0)
		free := n.Place("free", 1)
		sel := n.Immediate("sel", 1, 0)
		n.In(sel, req, 1)
		n.Out(sel, q, 1)
		n.Inhibit(sel, q, 3)
		start := n.Immediate("start", 1, 1)
		n.In(start, q, 1)
		n.In(start, free, 1)
		n.Out(start, svc, 1)
		acc := n.Timed("acc", 6)
		n.In(acc, svc, 1)
		n.Out(acc, pre, 1)
		n.Out(acc, done, 1)
		recharge := n.Timed("precharge", 2)
		n.In(recharge, pre, 1)
		n.Out(recharge, free, 1)
	}

	stall := n.Exponential("stall", 0.5)
	n.In(stall, cpu, 1)
	n.In(stall, out, 1)
	n.Out(stall, stalled, 1)
	n.Out(stall, out, 1)
	resume := n.Immediate("resume", 1, 2)
	n.In(resume, stalled, 1)
	n.In(resume, done, 1)
	n.In(resume, out, 1)
	n.Out(resume, cpu, 1)
	retire := n.Immediate("retire", 2, 1)
	n.In(retire, done, 1)
	n.In(retire, out, 1)
	return n
}

// testNets are the nets the equivalence test and the Step benchmarks run.
var testNets = []struct {
	name  string
	build func() *Net
}{
	{"mixed", buildMixedNet},
	{"banks", func() *Net { return buildBankNet(24) }},
}

// refSim is the whole-net reference stepper: the event loop as it stood
// before it went incremental. Every settle iteration scans every
// transition for the top enabled priority class, every firing
// reschedules every timed transition, Step takes a linear minimum over
// all schedules, and accrual visits every place.
type refSim struct {
	net        *Net
	rng        *rand.Rand
	marking    []int
	sched      []float64
	firings    []int64
	tokTime    []float64
	now, lastT float64
}

func newRefSim(n *Net, seed int64) *refSim {
	r := &refSim{
		net:     n,
		rng:     rand.New(rand.NewSource(seed)),
		marking: make([]int, len(n.places)),
		sched:   make([]float64, len(n.trans)),
		firings: make([]int64, len(n.trans)),
		tokTime: make([]float64, len(n.places)),
	}
	for i, p := range n.places {
		r.marking[i] = p.initial
	}
	for i := range r.sched {
		r.sched[i] = math.Inf(1)
	}
	r.reschedule()
	return r
}

func (r *refSim) enabled(t int) bool {
	tr := &r.net.trans[t]
	for _, a := range tr.in {
		if r.marking[a.place] < a.mult {
			return false
		}
	}
	for _, a := range tr.inhibit {
		if r.marking[a.place] >= a.mult {
			return false
		}
	}
	return true
}

func (r *refSim) fire(t int) {
	tr := &r.net.trans[t]
	for _, a := range tr.in {
		r.marking[a.place] -= a.mult
	}
	for _, a := range tr.out {
		r.marking[a.place] += a.mult
	}
	r.firings[t]++
}

func (r *refSim) reschedule() {
	for i := range r.net.trans {
		tr := &r.net.trans[i]
		if tr.kind == Immediate {
			continue
		}
		en := r.enabled(i)
		switch {
		case en && math.IsInf(r.sched[i], 1):
			if tr.kind == Deterministic {
				r.sched[i] = r.now + tr.delay
			} else {
				r.sched[i] = r.now + r.rng.ExpFloat64()/tr.rate
			}
		case !en && !math.IsInf(r.sched[i], 1):
			r.sched[i] = math.Inf(1)
		}
	}
}

func (r *refSim) settle() error {
	for iter := 0; ; iter++ {
		if iter >= maxImmediateChain {
			return ErrLivelock
		}
		bestPrio := math.MinInt64
		var totalW float64
		for i := range r.net.trans {
			tr := &r.net.trans[i]
			if tr.kind != Immediate || !r.enabled(i) {
				continue
			}
			if tr.priority > bestPrio {
				bestPrio = tr.priority
				totalW = 0
			}
			if tr.priority == bestPrio {
				totalW += tr.weight
			}
		}
		if totalW == 0 {
			return nil
		}
		pick := r.rng.Float64() * totalW
		for i := range r.net.trans {
			tr := &r.net.trans[i]
			if tr.kind != Immediate || tr.priority != bestPrio || !r.enabled(i) {
				continue
			}
			pick -= tr.weight
			if pick <= 0 {
				r.fire(i)
				break
			}
		}
		r.reschedule()
	}
}

func (r *refSim) Step() error {
	if err := r.settle(); err != nil {
		return err
	}
	best := -1
	bestT := math.Inf(1)
	for i, at := range r.sched {
		if at < bestT {
			bestT = at
			best = i
		}
	}
	if best < 0 {
		return ErrDeadlock
	}
	if dt := bestT - r.lastT; dt > 0 {
		for i, m := range r.marking {
			r.tokTime[i] += float64(m) * dt
		}
		r.lastT = bestT
	}
	r.now = bestT
	r.sched[best] = math.Inf(1)
	r.fire(best)
	r.reschedule()
	return r.settle()
}

func (r *refSim) timeAvgTokens(p int) float64 {
	if r.now == 0 {
		return float64(r.marking[p])
	}
	return r.tokTime[p] / r.now
}

// TestRescheduleEquivalence pins the incremental event loop against the
// whole-net reference stepper: for a fixed seed the two must agree
// bit-for-bit on the clock, every firing count, every marking and every
// time-averaged marking after every step — so the immediate picks and
// exponential samples consume the shared RNG stream in exactly the same
// order, timed ties resolve alike, and skipping unmarked places in the
// accrual changes no sum.
func TestRescheduleEquivalence(t *testing.T) {
	for _, nc := range testNets {
		for seed := int64(1); seed <= 5; seed++ {
			n := nc.build()
			fast := NewSim(n, seed)
			ref := newRefSim(n, seed)
			for step := 0; step < 2000; step++ {
				errFast, errRef := fast.Step(), ref.Step()
				if !errors.Is(errFast, errRef) {
					t.Fatalf("%s seed %d step %d: incremental err=%v, reference err=%v",
						nc.name, seed, step, errFast, errRef)
				}
				if errFast != nil {
					break
				}
				if fast.Now() != ref.now {
					t.Fatalf("%s seed %d step %d: clock %v != %v", nc.name, seed, step, fast.Now(), ref.now)
				}
				for i := 0; i < n.NumTrans(); i++ {
					if fast.Firings(TransID(i)) != ref.firings[i] {
						t.Fatalf("%s seed %d step %d: firings(%s) %d != %d", nc.name, seed, step,
							n.TransName(TransID(i)), fast.Firings(TransID(i)), ref.firings[i])
					}
				}
				for i := 0; i < n.NumPlaces(); i++ {
					if fast.Marking(PlaceID(i)) != ref.marking[i] {
						t.Fatalf("%s seed %d step %d: marking(%s) %d != %d", nc.name, seed, step,
							n.PlaceName(PlaceID(i)), fast.Marking(PlaceID(i)), ref.marking[i])
					}
					got, want := fast.TimeAvgTokens(PlaceID(i)), ref.timeAvgTokens(i)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s seed %d step %d: TimeAvgTokens(%s) %v != %v", nc.name, seed, step,
							n.PlaceName(PlaceID(i)), got, want)
					}
				}
			}
		}
	}
}

// TestBankNetShape keeps buildBankNet exercising what it claims to.
func TestBankNetShape(t *testing.T) {
	n := buildBankNet(24)
	NewSim(n, 1)
	if n.NumTrans() <= 64 {
		t.Errorf("bank net has %d transitions, want > 64", n.NumTrans())
	}
	if len(n.prios) != 3 {
		t.Errorf("bank net has %d priority classes, want 3", len(n.prios))
	}
}

// TestStepZeroAllocs: once running, Step allocates nothing — all
// per-Sim state is sized in NewSim.
func TestStepZeroAllocs(t *testing.T) {
	s := NewSim(buildBankNet(24), 1)
	for i := 0; i < 1000; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(2000, func() {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Step allocates %v times per call, want 0", allocs)
	}
}

// TestSharedNetConcurrentSims: one Net backing many Sims is the
// documented usage; the lazily built adjacency must be race-free.
func TestSharedNetConcurrentSims(t *testing.T) {
	n := buildMixedNet()
	results := make([]float64, 8)
	donech := make(chan struct{})
	for i := range results {
		go func(i int) {
			defer func() { donech <- struct{}{} }()
			s := NewSim(n, 7)
			for step := 0; step < 500; step++ {
				if err := s.Step(); err != nil {
					t.Errorf("sim %d: %v", i, err)
					return
				}
			}
			results[i] = s.Now()
		}(i)
	}
	for range results {
		<-donech
	}
	for i, r := range results {
		if r != results[0] {
			t.Errorf("sim %d diverged: clock %v != %v", i, r, results[0])
		}
	}
}

// stepper is what the Step benchmarks drive: the incremental Sim or the
// whole-net reference stepper.
type stepper interface{ Step() error }

// benchSteps times b.N steps and reports transition firings per second.
func benchSteps(b *testing.B, s stepper, firings func() int64) {
	b.ReportAllocs()
	before := firings()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(firings()-before)/b.Elapsed().Seconds(), "firings/s")
}

// BenchmarkSimStep measures the per-event cost of the incremental event
// loop.
func BenchmarkSimStep(b *testing.B) {
	for _, nc := range testNets {
		b.Run(nc.name, func(b *testing.B) {
			s := NewSim(nc.build(), 1)
			benchSteps(b, s, func() (sum int64) {
				for _, f := range s.firings {
					sum += f
				}
				return sum
			})
		})
	}
}

// BenchmarkSimStepFullRescan is the same loop on the whole-net reference
// stepper, so the incremental win is visible in one bench diff.
func BenchmarkSimStepFullRescan(b *testing.B) {
	for _, nc := range testNets {
		b.Run(nc.name, func(b *testing.B) {
			r := newRefSim(nc.build(), 1)
			benchSteps(b, r, func() (sum int64) {
				for _, f := range r.firings {
					sum += f
				}
				return sum
			})
		})
	}
}
