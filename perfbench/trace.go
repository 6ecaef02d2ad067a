package main

import (
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/fame"
	"repro/internal/token"
)

// The traced run times every endpoint tick from outside the program, with
// a fame.Injector installed through Runner.SetInjector. All three
// schedulers (sequential, pool, mux) call FilterInput for each connected
// input port immediately before an endpoint's TickBatch and FilterOutput
// for each connected output port immediately after it, so the span from
// an endpoint's last input filter to its first output filter is that
// endpoint's tick. The injector only reads clocks; it never touches a
// batch.
//
// Eager endpoints (the partition bridges) are the exception: their inputs
// are filtered in a per-round prepass, followed at once by StartBatch,
// and their TickBatch runs later in the round. Under the sequential
// scheduler, the only one that drives partitions here, the injector
// therefore chains events: a bridge's StartBatch is the time from its
// input filter to the next filter event, and its TickBatch is the time
// from the previous endpoint's output filter to its own.

// layer names, in the order the per-layer metrics use them.
const (
	layerSoC       = "soc"
	layerSoftstack = "softstack"
	layerSwitch    = "switchmodel"
	layerTransport = "transport"
)

// slot is one endpoint's preallocated span accumulator. It is written only
// by the worker ticking that endpoint; the padding keeps neighbouring
// endpoints on different cache lines.
type slot struct {
	layer   string
	lastIn  int   // highest connected input port seen, so only it reads the clock
	open    int64 // ns: when the current tick (or StartBatch) began
	ticking bool  // inputs filtered, first output filter not yet seen
	eager   bool
	total   int64 // ns spent in ticks
	_       [64]byte
}

// spanInjector accumulates per-endpoint tick time.
type spanInjector struct {
	base  time.Time
	index map[string]int
	slots []slot
	// seq enables event chaining for eager endpoints; it is only valid
	// when one goroutine drives the runner (the sequential scheduler).
	// Every interval between two consecutive clock reads is then
	// attributed to at most one endpoint.
	seq     bool
	lastEv  int64 // seq: time of the latest clock read
	pending int   // seq: eager slot whose StartBatch is running, or -1
}

// newSpanInjector prepares slots for the given endpoint→layer map. eager
// names the endpoints that implement fame.EagerStarter.
func newSpanInjector(layers map[string]string, eager map[string]bool, sequential bool) *spanInjector {
	t := &spanInjector{base: time.Now(), index: make(map[string]int, len(layers)), seq: sequential, pending: -1}
	for name, layer := range layers {
		t.index[name] = len(t.slots)
		t.slots = append(t.slots, slot{layer: layer, lastIn: -1, eager: eager[name]})
	}
	return t
}

func (t *spanInjector) now() int64 { return int64(time.Since(t.base)) }

// closePending ends a running StartBatch span at time now.
func (t *spanInjector) closePending(now int64) {
	if t.pending >= 0 {
		s := &t.slots[t.pending]
		s.total += now - s.open
		t.pending = -1
	}
}

func (t *spanInjector) FilterInput(endpoint string, port int, _ clock.Cycles, _ *token.Batch) {
	i, ok := t.index[endpoint]
	if !ok {
		return
	}
	s := &t.slots[i]
	if port < s.lastIn {
		return
	}
	s.lastIn = port
	now := t.now()
	s.open = now
	s.ticking = true
	if t.seq {
		t.closePending(now)
		t.lastEv = now
		if s.eager {
			t.pending = i
		}
	}
}

func (t *spanInjector) FilterOutput(endpoint string, _ int, _ clock.Cycles, _ *token.Batch) {
	i, ok := t.index[endpoint]
	if !ok {
		return
	}
	s := &t.slots[i]
	if !s.ticking {
		return // not the first output filter of this tick
	}
	now := t.now()
	start := s.open
	if t.seq {
		switch {
		case t.pending >= 0:
			t.closePending(now)
			start = now
		case s.eager:
			start = t.lastEv
		}
		t.lastEv = now
	}
	s.total += now - start
	s.ticking = false
}

// byLayer sums tick time per layer, in nanoseconds.
func (t *spanInjector) byLayer() map[string]float64 {
	out := make(map[string]float64)
	for _, s := range t.slots {
		out[s.layer] += float64(s.total)
	}
	return out
}

// spanTotals aggregates the traced region of one or more runners.
type spanTotals struct {
	wall     time.Duration // traced wall time
	workers  int           // goroutines that ticked endpoints concurrently
	layerNs  map[string]float64
	rounds   float64
	schedU   int
	overhead float64 // traced wall over untraced wall, minus one
}

func (s *spanTotals) add(inj *spanInjector) {
	if s.layerNs == nil {
		s.layerNs = make(map[string]float64)
	}
	for k, v := range inj.byLayer() {
		s.layerNs[k] += v
	}
}

// capacityNs is the worker time available in the traced region.
func (s *spanTotals) capacityNs() float64 { return float64(s.wall) * float64(s.workers) }

// frameSelfNs is the scheduler's own time: worker time not spent inside
// any endpoint tick.
func (s *spanTotals) frameSelfNs() float64 { return s.capacityNs() - sum(mapValues(s.layerNs)) }

func mapValues(m map[string]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// accountingTolerance bounds how far the summed tick spans may exceed the
// worker time of the traced region. The spans of one worker never overlap
// and all lie inside the region, so layer self times plus fame.self_ms
// equal wall × effective workers exactly, and fame.self_ms can only go
// negative through clock skew between workers; beyond this share of the
// worker time the trace is reported as broken.
const accountingTolerance = 0.01

// record writes the fame and layer self-time metrics.
func (s *spanTotals) record(r *report) error {
	capNs := s.capacityNs()
	self := s.frameSelfNs()
	if self < -accountingTolerance*capNs {
		return fmt.Errorf("trace accounting: tick spans %.0f ns exceed wall × workers %.0f ns", capNs-self, capNs)
	}
	r.one("fame.self_ms", "ms", self/1e6)
	r.one("fame.self_share", "ratio", ratio(self, capNs))
	r.one("fame.ns_per_round", "ns", ratio(self, s.rounds))
	r.one("fame.rounds", "count", s.rounds)
	r.one("fame.busy_share", "ratio", ratio(capNs-self, capNs))
	r.one("fame.effective_workers", "count", float64(s.workers))
	r.one("fame.sched_units", "count", float64(s.schedU))
	for _, l := range []string{layerSoC, layerSoftstack, layerSwitch} {
		r.one(l+".self_ms", "ms", s.layerNs[l]/1e6)
		r.one(l+".self_share", "ratio", ratio(s.layerNs[l], capNs))
	}
	r.one("transport.self_ms", "ms", s.layerNs[layerTransport]/1e6)
	r.one("trace.overhead_pct", "%", s.overhead*100)
	return nil
}

var _ fame.Injector = (*spanInjector)(nil)
