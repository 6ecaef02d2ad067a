package fame

import (
	"repro/internal/obs"
)

// This file wires the token runtime into the observability layer
// (internal/obs). The runner's hot loops are the costliest code in the
// whole simulator, so the instruments follow two rules:
//
//   - a nil *runnerMetrics disables every instrument (one pointer nil
//     check per round). The parallel loops still take their sampled-round
//     clock reads, which feed the partitioner's measured tick cost;
//   - every enabled-path record is an uncontended atomic add (obs
//     instruments); clock reads — the one genuinely expensive part — are
//     paid only on sampled rounds (one round in tickSampleMask+1). On a
//     sampled round the sequential runner chains time.Now() reads across
//     endpoints (one read per tick, the previous tick's end is this
//     tick's start), while the parallel runner pays two reads per tick so
//     ring-wait time never pollutes the tick histogram. firesim bench
//     measures and reports the actual sim-rate overhead against the <5%
//     budget.
//
// Metric names, all under the fame_ prefix:
//
//	fame_rounds_total                        rounds completed (all modes)
//	fame_cycles_total                        target cycles simulated
//	fame_run_wall_nanos_total                wall time inside round loops
//	fame_tokens_total                        valid tokens emitted, all endpoints
//	fame_pool_allocs_total                   batch-pool misses (fresh allocations)
//	fame_pool_drops_total                    recycled batches dropped (want: 0)
//	fame_cycle                               gauge: current target cycle
//	fame_partition_imbalance_permille        gauge: latest RunParallel partition's
//	                                         max ÷ mean worker cost × 1000
//	fame_tick_nanos{endpoint=E}              histogram: sampled TickBatch wall time
//	fame_endpoint_tokens_total{endpoint=E}   valid tokens emitted by E
//
// Token and round counters are exact in every mode — they are pure
// functions of target behaviour and the equivalence tests hold them to
// it. fame_tick_nanos is host-side profiling and is sampled: both run
// modes time the same rounds (round index ≡ 0 mod tickSampleMask+1), so
// their histograms stay comparable. In sequential mode it is an
// attribution — endpoint ticks include their share of the runner's
// inter-tick bookkeeping, and a sampled round's tick times sum to its
// wall time. fame_partition_imbalance_permille is host-side too: it reads
// the measured tick costs the partitioner balanced by, so 1000 means every
// worker carries the same cost and 2000 on two workers means one idles.
type runnerMetrics struct {
	rounds     *obs.Counter
	cycles     *obs.Counter
	runWall    *obs.Counter
	tokens     *obs.Counter
	poolAllocs *obs.Counter
	poolDrops  *obs.Counter
	cycleGauge *obs.Gauge
	imbalance  *obs.Gauge

	// Per-endpoint instruments, indexed like Runner.endpoints. Histograms
	// and counters are internally atomic, so the parallel runner's worker
	// goroutines need no extra synchronisation when writing them.
	tick     []*obs.Histogram
	epTokens []*obs.Counter
}

// EnableMetrics attaches the runner to a registry: every subsequent Run,
// RunParallel and Measure updates the fame_* instruments described in
// metrics.go. Passing nil detaches (the default). Like SetInjector, it
// may be called between runs; mid-run changes are not supported.
//
// Per-endpoint instruments are named by endpoint, so they are created
// once the topology is final (at first build); enabling metrics after the
// first Run is also fine.
func (r *Runner) EnableMetrics(reg *obs.Registry) {
	r.metricsReg = reg
	if reg == nil {
		r.metrics = nil
		return
	}
	if r.built {
		r.initMetrics()
	}
}

// initMetrics instantiates the instruments against r.metricsReg. Called
// from build() (or EnableMetrics when already built), never on hot paths.
func (r *Runner) initMetrics() {
	reg := r.metricsReg
	m := &runnerMetrics{
		rounds:     reg.Counter("fame_rounds_total"),
		cycles:     reg.Counter("fame_cycles_total"),
		runWall:    reg.Counter("fame_run_wall_nanos_total"),
		tokens:     reg.Counter("fame_tokens_total"),
		poolAllocs: reg.Counter("fame_pool_allocs_total"),
		poolDrops:  reg.Counter("fame_pool_drops_total"),
		cycleGauge: reg.Gauge("fame_cycle"),
		imbalance:  reg.Gauge("fame_partition_imbalance_permille"),
		tick:       make([]*obs.Histogram, len(r.endpoints)),
		epTokens:   make([]*obs.Counter, len(r.endpoints)),
	}
	for i, e := range r.endpoints {
		m.tick[i] = reg.Histogram(obs.Label("fame_tick_nanos", "endpoint", e.Name()))
		m.epTokens[i] = reg.Counter(obs.Label("fame_endpoint_tokens_total", "endpoint", e.Name()))
	}
	r.metrics = m
}

// tickSampleMask selects the rounds whose endpoint ticks are timed:
// round indices where round&tickSampleMask == 0, i.e. one round in 32.
// The round index restarts at every Run/RunParallel call, so short
// slices (a supervisor's 4-step health-check cadence) still sample at
// least once per slice. A sampled round costs one time.Now per endpoint;
// on hosts with a slow clocksource that is the dominant instrumentation
// cost, which is why the rate is this conservative. Untyped so it masks
// both the sequential runner's clock.Cycles round index and the parallel
// runner's int one.
const tickSampleMask = 31

// sampledRounds returns how many of n rounds carry tick timings — the
// expected fame_tick_nanos observation count per endpoint for a run of n
// rounds (exported to tests via the obs_test helpers).
func sampledRounds(n uint64) uint64 { return (n + tickSampleMask) / (tickSampleMask + 1) }

// flushProgress publishes locally accumulated heartbeat state: rounds
// and tokens since the last flush, plus the current cycle gauge. The hot
// loops call it on sampled rounds and at run end, so quiet rounds cost
// no atomic RMW traffic while external readers still see progress at
// sample granularity.
func (m *runnerMetrics) flushProgress(rounds, toks *uint64, step uint64, cycle int64) {
	if *rounds > 0 {
		m.rounds.Add(*rounds)
		m.cycles.Add(*rounds * step)
		*rounds = 0
	}
	if *toks > 0 {
		m.tokens.Add(*toks)
		*toks = 0
	}
	m.cycleGauge.Set(cycle)
}

// flushEpTokens publishes locally accumulated per-endpoint token counts
// (indexed like Runner.endpoints) and zeroes the accumulator. Same flush
// cadence as flushProgress: sampled rounds and run end, so the hot loop
// pays no per-round atomic RMW per endpoint.
func (m *runnerMetrics) flushEpTokens(acc []uint64) {
	for i, t := range acc {
		if t > 0 {
			m.epTokens[i].Add(t)
			acc[i] = 0
		}
	}
}
