// Package fame implements the decoupled, token-coupled simulation runtime
// at the heart of FireSim.
//
// FireSim applies the FAME-1 transform to server RTL: each target cycle,
// the transformed design expects a token on every input interface and
// produces a token on every output interface; if any input token is
// missing, the model stalls until one arrives. This simple contract is what
// lets heterogeneous simulation hosts — FPGAs, switch-model processes,
// different machines — advance different target cycles at the same wall
// time while still computing every target cycle deterministically.
//
// This package provides:
//
//   - the Endpoint contract (a batched form of the per-cycle token
//     interface; see DESIGN.md, "Performance note"),
//   - Link plumbing with per-link latency, where batch size equals the
//     link latency exactly as in the paper ("we always set our batch size
//     to the target link latency being modeled"),
//   - a deterministic sequential Runner and a parallel Runner (a fixed
//     worker pool over a topology-aware endpoint partition, with
//     latency-tolerant SPSC rings on cross-worker links; see parallel.go)
//     that produce bit-identical token streams, and
//   - a FAME-5-style Multiplex wrapper that hosts several target models on
//     one simulated physical pipeline.
package fame

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/token"
)

// Endpoint is a decoupled simulation model: a FAME-1-transformed server
// blade, a switch model, or any other component on the token network.
//
// TickBatch advances the model by n target cycles. in[p] holds the tokens
// arriving on port p during those cycles and out[p] must be filled with the
// tokens the model emits on port p. Both slices have one entry per port.
//
// Contract:
//   - in batches are read-only; endpoints must not mutate or retain them
//     past the call (the runtime recycles their storage),
//   - out batches arrive Reset to n cycles; the endpoint Puts its valid
//     tokens and must not retain them,
//   - an unconnected input port receives a batch with no valid tokens; an
//     unconnected output port receives a scratch batch that is discarded.
//
// A model must behave as if it were ticked one cycle at a time: emitting a
// token at out-offset k may depend only on input tokens at offsets <= k on
// ports whose data combinationally reaches the output, exactly like the
// latency-insensitive FAME-1 hardware contract.
type Endpoint interface {
	// Name identifies the endpoint in diagnostics.
	Name() string
	// NumPorts reports how many token ports the endpoint exposes.
	NumPorts() int
	// TickBatch advances the endpoint by n target cycles.
	TickBatch(n int, in, out []*token.Batch)
}

// EagerStarter is an optional Endpoint capability for overlapping I/O
// with computation. When an endpoint implements it, every scheduler runs
// a per-round prepass before the normal tick order: the endpoint's input
// batches are popped (and injector-filtered) early and handed to
// StartBatch, which may kick off asynchronous work — a transport.Bridge
// puts its frame on the wire — before any endpoint in the round blocks.
// With K cut-point bridges in a partition, all K sends overlap and the
// round pays ~one network round-trip instead of K serial ones.
//
// Contract: StartBatch receives exactly the input batches the subsequent
// TickBatch call will receive (same storage, already filtered); it must
// not mutate them, and it must be a best-effort no-op whenever it cannot
// proceed — the runtime neither checks for nor reacts to failure there,
// TickBatch remains responsible for the window's result. Pre-popping is
// equivalence-preserving: a round's inputs were pushed in the previous
// round (or pre-seeded), so the FIFO pop yields the same batch whether it
// happens in the prepass or at the endpoint's slot in tick order.
type EagerStarter interface {
	StartBatch(n int, in []*token.Batch)
}

// Injector observes and mutates token batches as they cross endpoint
// boundaries, the hook the fault-injection subsystem (internal/faults)
// plugs into. FilterInput runs on a batch just before it is delivered to
// the named endpoint's input port; FilterOutput runs on a batch the
// endpoint just emitted, before it enters the link. start is the absolute
// target cycle of the batch's first token, so an injector keyed on
// (endpoint, port, cycle) is a pure function of target time and therefore
// deterministic under both Run and RunParallel.
//
// Implementations may mutate the batch in place (the runtime owns its
// storage at hook time) but must not retain it. They must be safe for
// concurrent calls on distinct endpoints: RunParallel invokes each
// endpoint's hooks from the worker goroutine that owns the endpoint, and
// different endpoints may be on different workers.
type Injector interface {
	FilterInput(endpoint string, port int, start clock.Cycles, b *token.Batch)
	FilterOutput(endpoint string, port int, start clock.Cycles, b *token.Batch)
}

// link is one attachment point: (endpoint index, port).
type portRef struct {
	ep   int
	port int
}

// channel carries token batches in one direction with a fixed latency.
// latency tokens are always in flight: the queue is pre-seeded with
// latency/step empty batches before the simulation starts.
type channel struct {
	latency clock.Cycles
	queue   batchRing      // FIFO of batches in flight
	free    []*token.Batch // recycled batch storage
}

func (c *channel) take(n int) *token.Batch {
	if k := len(c.free); k > 0 {
		b := c.free[k-1]
		c.free = c.free[:k-1]
		b.Reset(n)
		return b
	}
	return token.NewBatch(n)
}

func (c *channel) push(b *token.Batch) { c.queue.push(b) }

func (c *channel) pop() *token.Batch { return c.queue.pop() }

func (c *channel) recycle(b *token.Batch) { c.free = append(c.free, b) }

// Link describes a bidirectional connection between two endpoint ports
// with a given latency in target cycles. N tokens are always in flight in
// each direction, so data emitted at cycle M arrives at cycle M+N.
type Link struct {
	a, b    portRef
	latency clock.Cycles
}

// Runner owns a topology of endpoints and links and advances target time.
// Endpoints and links must all be registered before the first Run call.
type Runner struct {
	endpoints []Endpoint
	epIndex   map[Endpoint]int
	links     []Link
	// inCh[e][p] / outCh[e][p] are the channels attached to each port;
	// nil when the port is unconnected.
	inCh, outCh [][]*channel
	step        clock.Cycles
	cycle       clock.Cycles
	built       bool

	// poisoned is set when an endpoint panic was contained mid-round: the
	// channel populations are inconsistent, so running or saving is
	// refused until a Restore (or partition-level SetCycle) rewinds to a
	// coherent state. See panic.go.
	poisoned bool

	// emptyIn is the shared read-only batch handed to unconnected input
	// ports; scratchOut[e][p] is a per-port discard batch for unconnected
	// output ports (per-port so that one endpoint with several unconnected
	// outputs never sees aliased batches).
	emptyIn    *token.Batch
	scratchOut [][]*token.Batch

	// injector, when non-nil, filters every batch crossing an endpoint
	// boundary (fault injection).
	injector Injector

	// metricsReg and metrics carry the optional observability wiring (see
	// metrics.go). metrics is nil unless EnableMetrics was called, and the
	// hot loops guard every instrument behind that one nil check.
	metricsReg *obs.Registry
	metrics    *runnerMetrics

	// workers, when non-zero, fixes how many workers RunParallel uses;
	// zero means GOMAXPROCS (see SetWorkers in parallel.go).
	workers int

	// multiplexed selects the many-nodes-per-worker scheduling mode: each
	// worker's endpoints are fused into one scheduling unit (see mux.go)
	// instead of one plan entry per endpoint. Host-side only; token
	// streams are bit-identical either way.
	multiplexed bool

	// ringSlack adds extra producer-side headroom (in rounds) to every
	// cross-worker SPSC ring beyond the mandatory latency depth, and
	// balanceSlackPct loosens the partitioner's balance cap by the given
	// percentage in favour of link co-location. Both are host-side tuning
	// knobs (see SetRingSlack / SetBalanceSlackPct in parallel.go).
	ringSlack       int
	balanceSlackPct int

	// effWorkers and schedUnits record the shape of the most recent
	// RunParallel: how many workers actually ran after endpoint-count
	// capping, and how many scheduling units they executed. Benchmarks
	// read them so sweep points are attributable to the real worker count
	// rather than the requested one.
	effWorkers int
	schedUnits int

	// costs[e] is endpoint e's measured host cost per round, the weight
	// RunParallel's partitioner balances workers by (see tickCost in
	// parallel.go). Host-side only: it never enters Save, checkpoints,
	// hashes or token streams.
	costs []tickCost

	// seq is the sequential loop's per-endpoint scratch, built once so
	// that a Run of one step (Partition.RunSlice, once per window)
	// allocates nothing.
	seq seqScratch

	// stepOverride, when non-zero, forces a smaller batch step than the
	// latency GCD (it must divide every link latency). Target behaviour is
	// identical — only host performance changes — which makes it the
	// ablation knob for the paper's batching argument ("tokens can be
	// batched up to the target's link latency, without any compromise in
	// cycle accuracy").
	stepOverride clock.Cycles
}

// NewRunner returns an empty topology.
func NewRunner() *Runner {
	return &Runner{epIndex: make(map[Endpoint]int)}
}

// Add registers an endpoint and returns it for chaining-style use.
func (r *Runner) Add(e Endpoint) Endpoint {
	if r.built {
		panic("fame: Add after Run")
	}
	if _, dup := r.epIndex[e]; dup {
		panic(fmt.Sprintf("fame: endpoint %q added twice", e.Name()))
	}
	r.epIndex[e] = len(r.endpoints)
	r.endpoints = append(r.endpoints, e)
	return e
}

// Connect attaches port aPort of a to port bPort of b with the given link
// latency (in target cycles) in each direction. Both endpoints must already
// be registered with Add.
func (r *Runner) Connect(a Endpoint, aPort int, b Endpoint, bPort int, latency clock.Cycles) error {
	if r.built {
		return errors.New("fame: Connect after Run")
	}
	ai, ok := r.epIndex[a]
	if !ok {
		return fmt.Errorf("fame: endpoint %q not registered", a.Name())
	}
	bi, ok := r.epIndex[b]
	if !ok {
		return fmt.Errorf("fame: endpoint %q not registered", b.Name())
	}
	if latency <= 0 {
		return fmt.Errorf("fame: link latency must be positive, got %d", latency)
	}
	if aPort < 0 || aPort >= a.NumPorts() {
		return fmt.Errorf("fame: port %d out of range for %q", aPort, a.Name())
	}
	if bPort < 0 || bPort >= b.NumPorts() {
		return fmt.Errorf("fame: port %d out of range for %q", bPort, b.Name())
	}
	r.links = append(r.links, Link{a: portRef{ai, aPort}, b: portRef{bi, bPort}, latency: latency})
	return nil
}

// Step returns the batch step size in cycles chosen for this topology: the
// greatest common divisor of all link latencies, so that every link's
// in-flight token count is a whole number of batches. Calling Step
// finalises the topology (no further Add/Connect calls are allowed); it
// returns 0 if the topology is not yet valid.
func (r *Runner) Step() clock.Cycles {
	if err := r.build(); err != nil {
		return 0
	}
	return r.step
}

// Cycle returns the current target cycle (the number of cycles fully
// simulated so far).
func (r *Runner) Cycle() clock.Cycles { return r.cycle }

// SetInjector installs (or, with nil, removes) the batch filter hook used
// for fault injection. It may be called between runs; mid-run changes are
// not supported. Determinism is preserved as long as the injector itself
// is a pure function of (endpoint, port, cycle), which faults.Plan
// guarantees.
func (r *Runner) SetInjector(inj Injector) { r.injector = inj }

// SetStepOverride forces exchanging batches of s tokens instead of one
// link latency's worth. s must divide every link latency; it must be set
// before the first Run. Use only for host-performance ablation — target
// behaviour is unchanged by construction.
func (r *Runner) SetStepOverride(s clock.Cycles) error {
	if r.built {
		return errors.New("fame: SetStepOverride after Run")
	}
	if s <= 0 {
		return fmt.Errorf("fame: step override must be positive, got %d", s)
	}
	r.stepOverride = s
	return nil
}

func gcd(a, b clock.Cycles) clock.Cycles {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (r *Runner) build() error {
	if r.built {
		return nil
	}
	if len(r.endpoints) == 0 {
		return errors.New("fame: no endpoints registered")
	}
	if len(r.links) == 0 {
		return errors.New("fame: no links registered")
	}
	r.step = r.links[0].latency
	for _, l := range r.links[1:] {
		r.step = gcd(r.step, l.latency)
	}
	if r.stepOverride > 0 {
		if r.step%r.stepOverride != 0 {
			return fmt.Errorf("fame: step override %d does not divide the latency gcd %d", r.stepOverride, r.step)
		}
		r.step = r.stepOverride
	}

	r.inCh = make([][]*channel, len(r.endpoints))
	r.outCh = make([][]*channel, len(r.endpoints))
	for i, e := range r.endpoints {
		r.inCh[i] = make([]*channel, e.NumPorts())
		r.outCh[i] = make([]*channel, e.NumPorts())
	}
	attach := func(from, to portRef, lat clock.Cycles) error {
		if r.outCh[from.ep][from.port] != nil {
			return fmt.Errorf("fame: output port %d of %q connected twice", from.port, r.endpoints[from.ep].Name())
		}
		if r.inCh[to.ep][to.port] != nil {
			return fmt.Errorf("fame: input port %d of %q connected twice", to.port, r.endpoints[to.ep].Name())
		}
		ch := &channel{latency: lat}
		// Pre-seed the link with latency worth of empty tokens, exactly as
		// in the paper's walk-through: "each input token queue initialized
		// with l tokens".
		for seeded := clock.Cycles(0); seeded < lat; seeded += r.step {
			ch.push(token.NewBatch(int(r.step)))
		}
		r.outCh[from.ep][from.port] = ch
		r.inCh[to.ep][to.port] = ch
		return nil
	}
	for _, l := range r.links {
		if err := attach(l.a, l.b, l.latency); err != nil {
			return err
		}
		if err := attach(l.b, l.a, l.latency); err != nil {
			return err
		}
	}
	r.emptyIn = token.NewBatch(int(r.step))
	r.scratchOut = make([][]*token.Batch, len(r.endpoints))
	for i, e := range r.endpoints {
		r.scratchOut[i] = make([]*token.Batch, e.NumPorts())
		for p := 0; p < e.NumPorts(); p++ {
			if r.outCh[i][p] == nil {
				r.scratchOut[i][p] = token.NewBatch(int(r.step))
			}
		}
	}
	r.costs = make([]tickCost, len(r.endpoints))
	r.seq = newSeqScratch(r.endpoints)
	r.built = true
	if r.metricsReg != nil {
		r.initMetrics()
	}
	return nil
}

// seqScratch holds seqLoop's per-endpoint port slices and its eager
// prepass list. Eager endpoints (cut-point bridges) get a per-round
// prepass: inputs popped and filtered early, StartBatch called, and the
// main loop then reuses the pre-popped batches. See the EagerStarter
// contract.
type seqScratch struct {
	ins, outs [][]*token.Batch
	eagers    []eagerEp
	isEager   []bool
	epAcc     []uint64 // per-endpoint token counts between metric flushes
}

type eagerEp struct {
	i int
	s EagerStarter
}

func newSeqScratch(eps []Endpoint) seqScratch {
	sc := seqScratch{
		ins:     make([][]*token.Batch, len(eps)),
		outs:    make([][]*token.Batch, len(eps)),
		isEager: make([]bool, len(eps)),
		epAcc:   make([]uint64, len(eps)),
	}
	for i, e := range eps {
		sc.ins[i] = make([]*token.Batch, e.NumPorts())
		sc.outs[i] = make([]*token.Batch, e.NumPorts())
		if s, ok := e.(EagerStarter); ok {
			sc.eagers = append(sc.eagers, eagerEp{i, s})
			sc.isEager[i] = true
		}
	}
	return sc
}

// Run advances the simulation by the given number of target cycles using
// the deterministic sequential scheduler. cycles must be a positive
// multiple of Step (after the first Run, Step is fixed).
func (r *Runner) Run(cycles clock.Cycles) error {
	_, err := r.run(cycles)
	return err
}

// run is Run plus a wall-time measurement covering only the round loop:
// topology build and scratch allocation happen before the clock starts,
// so Measure's reported sim rate is not inflated by setup cost on short
// runs.
func (r *Runner) run(cycles clock.Cycles) (time.Duration, error) {
	if err := r.checkRun(cycles); err != nil {
		return 0, err
	}
	return r.seqLoop(0, int(cycles/r.step), false)
}

// checkRun builds the topology and validates a run request of cycles.
func (r *Runner) checkRun(cycles clock.Cycles) error {
	if err := r.build(); err != nil {
		return err
	}
	if r.poisoned {
		return ErrPoisoned
	}
	if cycles <= 0 || cycles%r.step != 0 {
		return fmt.Errorf("fame: cycles %d must be a positive multiple of step %d", cycles, r.step)
	}
	return nil
}

// seqLoop runs rounds [first, rounds) of one call on the sequential
// scheduler. first offsets the round index, so a call split between
// schedulers samples tick timings on the same rounds as an unsplit one.
// calibrate times every tick into the measured cost RunParallel
// partitions by; a plain Run never calibrates.
func (r *Runner) seqLoop(first, rounds int, calibrate bool) (wall time.Duration, err error) {
	n := int(r.step)

	// Panic containment: a model that panics mid-tick must not take the
	// process down (in a shard process it would take every co-hosted
	// partition with it). curIdx tracks which endpoint is being ticked so
	// the recovered error can name it; the runner is poisoned because the
	// round was torn mid-flight.
	curIdx := -1
	defer func() {
		if v := recover(); v != nil {
			r.poisoned = true
			name := "<runner>"
			if curIdx >= 0 && curIdx < len(r.endpoints) {
				name = r.endpoints[curIdx].Name()
			}
			err = &EndpointPanicError{Endpoint: name, Cycle: r.cycle, Value: v, Stack: debug.Stack()}
		}
	}()

	ins, outs, eagers, isEager := r.seq.ins, r.seq.outs, r.seq.eagers, r.seq.isEager

	m := r.metrics
	var epAcc []uint64
	if m != nil {
		epAcc = r.seq.epAcc
		clear(epAcc)
	}
	start := time.Now()
	var lastTick time.Time
	var accRounds, accToks uint64
	for round := first; round < rounds; round++ {
		sampled := m != nil && round&tickSampleMask == 0
		timed := sampled || calibrate
		if timed {
			lastTick = time.Now()
		}
		var roundToks uint64
		for _, eg := range eagers {
			i := eg.i
			curIdx = i
			in := ins[i]
			for p := range in {
				if ch := r.inCh[i][p]; ch != nil {
					in[p] = ch.pop()
				} else {
					in[p] = r.emptyIn
				}
			}
			if inj := r.injector; inj != nil {
				name := r.endpoints[i].Name()
				for p := range in {
					if r.inCh[i][p] != nil {
						inj.FilterInput(name, p, r.cycle, in[p])
					}
				}
			}
			eg.s.StartBatch(n, in)
		}
		for i, e := range r.endpoints {
			curIdx = i
			in := ins[i]
			out := outs[i]
			for p := range in {
				if !isEager[i] {
					if ch := r.inCh[i][p]; ch != nil {
						in[p] = ch.pop()
					} else {
						in[p] = r.emptyIn
					}
				}
				if ch := r.outCh[i][p]; ch != nil {
					out[p] = ch.take(n)
				} else {
					sb := r.scratchOut[i][p]
					sb.Reset(n)
					out[p] = sb
				}
			}
			if inj := r.injector; inj != nil && !isEager[i] {
				name := e.Name()
				for p := range in {
					if r.inCh[i][p] != nil {
						inj.FilterInput(name, p, r.cycle, in[p])
					}
				}
			}
			e.TickBatch(n, in, out)
			if m != nil {
				var toks uint64
				for p := range out {
					if r.outCh[i][p] != nil {
						toks += uint64(len(out[p].Slots))
					}
				}
				if toks > 0 {
					// Batched locally like the heartbeat counters; flushed
					// on sampled rounds and at run end.
					epAcc[i] += toks
					roundToks += toks
				}
			}
			// Tick timing is sampled (every tickSampleMask+1 rounds, or
			// every round when calibrating) with chained clock reads:
			// endpoint i's tick is measured from the previous endpoint's
			// read, so a timed round costs one time.Now per endpoint and
			// an untimed round costs none. The runner's own bookkeeping
			// between ticks lands in the next endpoint's bucket — tick
			// times are attribution, and a timed round's tick times sum to
			// its wall time.
			if timed {
				now := time.Now()
				d := now.Sub(lastTick).Nanoseconds()
				if sampled {
					m.tick[i].Observe(uint64(d))
				}
				if calibrate {
					r.costs[i].add(d)
				}
				lastTick = now
			}
			if inj := r.injector; inj != nil {
				name := e.Name()
				for p := range in {
					if r.outCh[i][p] != nil {
						inj.FilterOutput(name, p, r.cycle, out[p])
					}
				}
			}
			for p := range in {
				if ch := r.outCh[i][p]; ch != nil {
					ch.push(out[p])
				}
				if ch := r.inCh[i][p]; ch != nil {
					ch.recycle(in[p])
				}
			}
		}
		r.cycle += r.step
		if m != nil {
			// Heartbeat counters batch locally and flush on sampled rounds:
			// progress stays externally visible at sample granularity while
			// quiet rounds touch no shared memory at all.
			accRounds++
			accToks += roundToks
			if sampled {
				m.flushProgress(&accRounds, &accToks, uint64(r.step), int64(r.cycle))
				m.flushEpTokens(epAcc)
			}
		}
	}
	wall = time.Since(start)
	if m != nil {
		m.flushProgress(&accRounds, &accToks, uint64(r.step), int64(r.cycle))
		m.flushEpTokens(epAcc)
		m.runWall.Add(uint64(wall.Nanoseconds()))
	}
	return wall, nil
}

// RunParallel advances the simulation by the given number of target cycles
// using the sharded worker pool scheduler (see parallel.go): endpoints are
// partitioned across up to Workers() workers by their measured tick
// cost, and each worker runs
// decoupled for up to a link latency of target cycles before synchronizing
// with a neighbour. This mirrors the paper's distributed execution: hosts
// may be simulating different target cycles at the same moment, yet the
// token protocol guarantees results identical to the sequential scheduler.
func (r *Runner) RunParallel(cycles clock.Cycles) error {
	_, err := r.runParallel(cycles)
	return err
}

// Measure runs the simulation for the given target cycles (sequentially or
// in parallel) and returns the achieved simulation rate, which is how the
// paper reports performance in Figures 8 and 9.
//
// Only the round loop is timed. Topology build, scratch allocation and the
// parallel runner's partition and ring construction all happen before the
// clock starts
// (and the parallel drain after it stops), so short calibration runs
// report the same per-cycle cost as long ones instead of folding one-time
// setup into the rate.
func (r *Runner) Measure(cycles clock.Cycles, freq clock.Hz, parallel bool) (clock.SimRate, error) {
	var wall time.Duration
	var err error
	if parallel {
		wall, err = r.runParallel(cycles)
	} else {
		wall, err = r.run(cycles)
	}
	if err != nil {
		return clock.SimRate{}, err
	}
	return clock.SimRate{TargetCycles: cycles, Wall: wall, TargetFreq: freq}, nil
}
