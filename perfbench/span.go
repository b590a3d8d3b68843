package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"syscall"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// program: the layer it belongs to, a name for the call, when it began
// and ended, the span that caused it (0 for a root), and the track
// (client or worker) it ran on.
type span struct {
	ID, Parent int
	Layer      string
	Name       string
	Track      int
	From, To   stamp
}

// stamp is a moment on the recorder's two clocks: wall time since the
// recorder started, and the CPU time the benchmark process has used.
// Process CPU only grows, so CPU stamps order and nest like wall stamps
// and a span's self time can be taken on either clock.
type stamp struct{ Wall, CPU time.Duration }

// recorder keeps spans in memory; nothing is written until the
// benchmark ends.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// now reads both clocks.
func (r *recorder) now() stamp {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return stamp{Wall: time.Since(r.t0), CPU: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

// begin opens a span and returns its id.
func (r *recorder) begin(layer, name string, parent, track int) int {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Layer: layer,
		Name: name, Track: track, From: now, To: stamp{Wall: -1}})
	return len(r.spans)
}

// end closes span id and returns its wall duration.
func (r *recorder) end(id int) time.Duration {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.To = now
	return s.To.Wall - s.From.Wall
}

// add records a span that has already ended.
func (r *recorder) add(layer, name string, parent, track int, from, to stamp) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Layer: layer,
		Name: name, Track: track, From: from, To: to})
}

// timeSpan runs fn inside a span and returns the span's wall duration.
func (r *recorder) timeSpan(layer, name string, parent, track int, fn func()) time.Duration {
	id := r.begin(layer, name, parent, track)
	fn()
	return r.end(id)
}

// snapshot returns a copy of the closed spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.To.Wall >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// interval is a span's extent on the wall clock, or on the CPU clock.
func (s span) interval(cpu bool) [2]time.Duration {
	if cpu {
		return [2]time.Duration{s.From.CPU, s.To.CPU}
	}
	return [2]time.Duration{s.From.Wall, s.To.Wall}
}

// selfTimes returns each span's self time on the wall or the CPU clock:
// its extent minus the part of it that its children cover. On the CPU
// clock that is the process CPU used while the span, and none of its
// children, was open; it is a span's own cost only where nothing else
// ran beside it, as in the serial decompositions.
func selfTimes(spans []span, cpu bool) map[int]time.Duration {
	kids := map[int][][2]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s.interval(cpu))
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		iv := s.interval(cpu)
		out[s.ID] = (iv[1] - iv[0]) - covered(iv, kids[s.ID])
	}
	return out
}

// covered returns how much of interval p the union of cs covers.
func covered(p [2]time.Duration, cs [][2]time.Duration) time.Duration {
	if len(cs) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(cs))
	for _, c := range cs {
		a, b := max(c[0], p[0]), min(c[1], p[1])
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var cur [2]time.Duration
	for i, x := range iv {
		switch {
		case i == 0:
			cur = x
		case x[0] <= cur[1]:
			cur[1] = max(cur[1], x[1])
		default:
			total += cur[1] - cur[0]
			cur = x
		}
	}
	if len(iv) > 0 {
		total += cur[1] - cur[0]
	}
	return total
}

// writeChromeTrace writes spans in the Chrome trace-event format
// (complete "X" events, microsecond timestamps), readable by
// chrome://tracing and Perfetto.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string           `json:"name"`
		Cat  string           `json:"cat"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.From.Wall) / float64(time.Microsecond),
			Dur: float64(s.To.Wall-s.From.Wall) / float64(time.Microsecond),
			Pid: 1, Tid: s.Track,
			Args: map[string]int64{"id": int64(s.ID), "parent": int64(s.Parent),
				"process_cpu_us": (s.To.CPU - s.From.CPU).Microseconds()},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]interface{}{"traceEvents": evs, "displayTimeUnit": "ms"})
}
