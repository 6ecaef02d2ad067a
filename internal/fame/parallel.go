package fame

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/hostplatform"
	"repro/internal/token"
)

// This file implements the parallel scheduler: a fixed, GOMAXPROCS-aware
// worker pool over a topology-aware partition of endpoints, replacing the
// original goroutine-per-endpoint design (which benchmarked *slower* than
// the sequential scheduler at every topology size — two Go channel
// operations per port per round plus scheduler churn swamped the
// per-round work).
//
// The new design follows the paper's actual performance mechanism:
// simulators run decoupled for up to a link latency of target cycles
// between synchronizations.
//
//   - partition() groups endpoints so that each worker carries an equal
//     share of the measured per-round host cost, and so that pairs
//     exchanging tokens co-locate on one worker whenever that balance
//     allows. A link whose two ends share a worker needs no
//     synchronization at all: the worker drives the link's persistent
//     batch ring exactly as the sequential scheduler does.
//   - links that do cross workers become spscRing pairs (data + recycled
//     storage) sized to the link's latency depth. A worker can execute up
//     to LinkLatency/Step rounds ahead of a neighbour before a ring runs
//     empty/full, so one cache-line handoff is amortised over the whole
//     slack window instead of paying two channel ops per port per round.
//   - each worker ticks its endpoints in global registration order, which
//     together with FIFO link order makes the token streams bit-identical
//     to the sequential scheduler — with or without an Injector installed
//     (hooks remain keyed on absolute target cycle).
//
// Worker count: SetWorkers(n) (0 = GOMAXPROCS), capped at the endpoint
// count. With one worker the partition is a single group with zero
// cross-worker links, and runParallel runs the sequential round loop
// directly — on a single-core host "actually parallel" means "no slower
// than sequential", which the old design failed.
//
// Cost measurement: the worker loops time each endpoint's TickBatch on
// the rounds fame_tick_nanos samples (whether or not metrics are
// attached) and fold the samples into a per-endpoint running mean on the
// Runner. Every RunParallel call re-partitions by the latest means. A
// runner that has not yet measured every endpoint runs the first round
// of the call on the sequential loop with every tick timed, then
// partitions by those costs for the rest of the call. Where the time goes
// is a property of the workload, not of the topology — eight quad-core
// blades behind an idle 8-port switch cost the switch almost nothing —
// so no static proxy balances both a switch-bound and a node-bound
// cluster.
//
// Scheduling granularity: by default each endpoint is its own schedule
// entry within its worker. SetMultiplexed(true) selects the FAME-style
// many-nodes-per-worker mode instead, where a worker's whole endpoint
// group is fused into one scheduling unit (see mux.go) — datacenter-scale
// topologies then need only Workers() scheduling units, not one per
// endpoint.
//
// Deadlock freedom: every cross-worker data ring has capacity ≥ depth+1
// (at least one free slot beyond the seeded in-flight population), so any
// wait-for cycle would need positive total slack around a topology cycle;
// intra-worker ordering edges are acyclic (index order) and every
// inter-worker edge carries slack ≥ 1, so no cycle of waits can close.

// SetWorkers configures how many workers RunParallel schedules endpoints
// onto: 0 (the default) means runtime.GOMAXPROCS. Like SetInjector it may
// be called between runs; mid-run changes are not supported. The worker
// count is host-side tuning only — token streams are bit-identical for
// every value.
func (r *Runner) SetWorkers(n int) error {
	if n < 0 {
		return fmt.Errorf("fame: worker count must be >= 0 (0 = GOMAXPROCS), got %d", n)
	}
	r.workers = n
	return nil
}

// Workers reports the worker count the next RunParallel will use before
// capping at the endpoint count: the SetWorkers value, or GOMAXPROCS when
// unset.
func (r *Runner) Workers() int {
	if r.workers > 0 {
		return r.workers
	}
	return runtime.GOMAXPROCS(0)
}

// EffectiveWorkers reports how many workers the most recent RunParallel
// actually ran after capping at the endpoint count and dropping empty
// partition bins (1 when the run delegated to the sequential loop, 0
// before any RunParallel). Benchmarks record this per sweep point so a
// measured speedup is attributable to the worker count that produced it,
// not the requested one.
func (r *Runner) EffectiveWorkers() int { return r.effWorkers }

// SchedUnits reports how many scheduling units the most recent
// RunParallel compiled: one per endpoint in the default pool mode (the
// sequential delegate also schedules each endpoint individually), one per
// worker in multiplexed mode. This is the number the many-nodes-per-worker
// mode exists to bound: a 1024-node topology multiplexed onto 8 workers
// runs as 8 units, not ~1100.
func (r *Runner) SchedUnits() int { return r.schedUnits }

// SetRingSlack adds n rounds of producer-side headroom to every
// cross-worker SPSC ring: the data ring grows by n slots and the free
// ring is pre-seeded with n spare batches, so a worker can run up to
// 1+n rounds ahead of a lagging consumer before blocking (the consumer
// side already has the full latency depth of slack). Host-side tuning
// only — rings are FIFO, so token streams are bit-identical for every
// value. The default is 0: on a single-core host workers time-slice, so
// slack cannot help there and only costs memory; multi-core hosts with
// bursty endpoint costs can widen the window via `firesim bench
// -ring-slack`.
func (r *Runner) SetRingSlack(n int) error {
	if n < 0 {
		return fmt.Errorf("fame: ring slack must be >= 0, got %d", n)
	}
	r.ringSlack = n
	return nil
}

// RingSlack reports the configured cross-worker ring slack, in rounds.
func (r *Runner) RingSlack() int { return r.ringSlack }

// SetBalanceSlackPct loosens the partitioner's balance cap by p percent:
// merged link groups may grow to ceil(total/workers)*(100+p)/100 cost
// before a merge is refused. More slack trades worker balance for link
// co-location (fewer cross-worker rings). Host-side tuning only; for a
// given cost vector the partition is deterministic at every value.
// Default 0 — the measured sweep at 8–64 nodes shows the star/tree
// benches are ring-bound only at the ToR boundary, which no cap setting
// can co-locate without collapsing to one worker.
func (r *Runner) SetBalanceSlackPct(p int) error {
	if p < 0 {
		return fmt.Errorf("fame: balance slack must be >= 0 percent, got %d", p)
	}
	r.balanceSlackPct = p
	return nil
}

// BalanceSlackPct reports the partitioner's balance-cap slack, percent.
func (r *Runner) BalanceSlackPct() int { return r.balanceSlackPct }

// tickCost is one endpoint's measured host cost per round: a running mean
// of sampled tick wall times, in nanoseconds.
type tickCost struct {
	mean    int
	samples int // folded in so far, saturating at costMemory
}

// costMemory bounds how many samples the running mean averages: the
// first costMemory samples weigh equally, later ones fold in with weight
// 1/costMemory, so a workload whose phases shift is tracked within a few
// sampled rounds.
const costMemory = 8

// add folds one sampled tick time into the mean. Host noise only ever
// adds time — a GC pause or a preempted worker can inflate one sample a
// hundredfold — and the next call's whole partition rests on the mean, so
// a sample counts for at most twice the current mean: a one-off spike
// moves the mean by an eighth at most, while a real cost increase still
// compounds by up to an eighth per sample.
func (c *tickCost) add(ns int64) {
	x := int(ns)
	if c.samples > 0 {
		x = min(x, 2*c.mean+1)
	}
	if c.samples < costMemory {
		c.samples++
	}
	c.mean += (x - c.mean) / c.samples
}

// costVector returns every endpoint's mean tick cost in nanoseconds, and
// whether every endpoint has been sampled at least once.
func (r *Runner) costVector() ([]int, bool) {
	cost := make([]int, len(r.costs))
	sampled := true
	for i, c := range r.costs {
		cost[i] = c.mean
		sampled = sampled && c.samples > 0
	}
	return cost, sampled
}

// costWeight floors a cost at 1: an endpoint whose tick measured 0 ns
// still occupies a slot in its worker's schedule.
func costWeight(c int) int {
	if c < 1 {
		return 1
	}
	return c
}

// partition splits endpoint indices into at most `workers` groups, given
// each endpoint's per-round host cost (cost[i] for endpoint i, any unit).
// It is a pure function of the registered topology, the worker count, the
// balance-slack knob and the cost vector, and aims for two properties, in
// order:
//
//  1. balance: group costs stay near total/workers;
//  2. co-location: endpoints joined by a link merge into one group when
//     the balance cap allows, so their links need no synchronization.
//
// Greedy merge over links in registration order (union-find, capped at
// ceil(total/workers) plus the configured slack), then the merged groups
// are packed by hostplatform.PackUnits — descending cost onto the
// least-loaded bin (worst-fit decreasing, the LPT balancing heuristic;
// NOT first-fit-decreasing, which minimises bin count rather than
// balancing a fixed bin set), ties broken by ascending group then bin
// index. This is the same packing the distributed reshard path uses, so
// in-process workers and multi-process shards balance identically. Empty
// bins are dropped; each returned group is sorted by endpoint index,
// which is the worker's tick order.
func (r *Runner) partition(workers int, cost []int) [][]int {
	ne := len(r.endpoints)
	if workers > ne {
		workers = ne
	}
	if workers <= 1 {
		all := make([]int, ne)
		for i := range all {
			all[i] = i
		}
		return [][]int{all}
	}

	total := 0
	parent := make([]int, ne)
	wsum := make([]int, ne)
	for i := range parent {
		parent[i] = i
		wsum[i] = costWeight(cost[i])
		total += wsum[i]
	}
	maxGroup := (total + workers - 1) / workers
	maxGroup += maxGroup * r.balanceSlackPct / 100

	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, l := range r.links {
		a, b := find(l.a.ep), find(l.b.ep)
		if a == b || wsum[a]+wsum[b] > maxGroup {
			continue
		}
		if b < a {
			a, b = b, a // root at the smaller index: deterministic
		}
		parent[b] = a
		wsum[a] += wsum[b]
	}

	// Collect merged groups; scanning i ascending makes each group's
	// first member its smallest index, so group indices are ordered by
	// first member — which is what makes PackUnits' ascending-index
	// tie-break deterministic here too.
	groupOf := make(map[int]int, ne)
	var groups [][]int
	var gw []int
	for i := 0; i < ne; i++ {
		root := find(i)
		gi, ok := groupOf[root]
		if !ok {
			gi = len(groups)
			groupOf[root] = gi
			groups = append(groups, nil)
			gw = append(gw, wsum[root])
		}
		groups[gi] = append(groups[gi], i)
	}

	var parts [][]int
	for _, unitIdxs := range hostplatform.PackUnits(gw, workers) {
		if len(unitIdxs) == 0 {
			continue
		}
		var bin []int
		for _, gi := range unitIdxs {
			bin = append(bin, groups[gi]...)
		}
		sort.Ints(bin)
		parts = append(parts, bin)
	}
	return parts
}

// imbalancePermille is a partition's max bin cost ÷ mean bin cost × 1000:
// 1000 is a perfect balance, 2000 on two workers means one idles.
func imbalancePermille(parts [][]int, cost []int) int64 {
	maxBin, total := 0, 0
	for _, part := range parts {
		bin := 0
		for _, i := range part {
			bin += costWeight(cost[i])
		}
		total += bin
		maxBin = max(maxBin, bin)
	}
	return int64(maxBin) * 1000 * int64(len(parts)) / int64(total)
}

// ringPair is the cross-worker replacement for one directed channel: data
// carries filled batches producer→consumer, free returns recycled storage
// consumer→producer. Sized so that steady-state rounds never allocate and
// never drop recycled batches (the free ring holds the entire circulating
// population: data capacity plus one batch in each side's hands).
type ringPair struct {
	data *spscRing
	free *spscRing
	ch   *channel // the persistent channel the rings stand in for
}

// newRingPair moves ch's in-flight queue and free pool into fresh rings.
//
// Sizing invariant (checked, not assumed — see TestRingPairSizing):
//   - data holds depth+1+slack slots: depth seeded in-flight batches,
//     plus one slot so the producer can push its round's output before
//     the consumer pops (the transient the sequential scheduler also
//     exhibits at a round boundary), plus the configured ring slack;
//   - free holds depth+3+slack slots: the circulating population is
//     bounded by depth seeded batches + one in each side's hands + slack
//     spares = depth+2+slack, and one more slot keeps the bound strict
//     rather than exact, so seeding overflow is impossible by
//     construction.
//
// Overflow is therefore a counted error, not a silent GC drop: hitting it
// means a broken invariant and the run must not proceed on a leaking
// pool.
func (r *Runner) newRingPair(ch *channel, m *runnerMetrics) (*ringPair, error) {
	depth := int(ch.latency / r.step)
	slack := r.ringSlack
	rp := &ringPair{
		data: newSPSCRing(depth + 1 + slack),
		free: newSPSCRing(depth + 3 + slack),
		ch:   ch,
	}
	for ch.queue.len() > 0 {
		if !rp.data.push(ch.queue.pop()) {
			rp.drain()
			return nil, fmt.Errorf("fame: data ring overflow seeding link (depth %d, cap %d)", depth, rp.data.cap())
		}
	}
	for _, b := range ch.free {
		if !rp.free.push(b) {
			if m != nil {
				m.poolDrops.Inc()
			}
			rp.drain()
			return nil, fmt.Errorf("fame: free-pool ring overflow seeding link (%d recycled batches, cap %d)", len(ch.free), rp.free.cap())
		}
	}
	ch.free = ch.free[:0]
	// Top the free ring up to `slack` spare batches so the producer can
	// actually run ahead without allocating: extra data-ring capacity is
	// useless unless the circulating population can fill it. The top-up
	// happens at most once per link lifetime — the spares drain back into
	// the channel's recycle pool after the run and re-seed the ring on the
	// next one, so repeated RunParallel calls do not grow the pool.
	for rp.free.len() < slack {
		if !rp.free.push(token.NewBatch(int(r.step))) {
			break // unreachable: free cap depth+3+slack > slack
		}
	}
	return rp, nil
}

// drain moves all ring contents back into the persistent channel, in FIFO
// order, so a subsequent sequential Run or a checkpoint Save sees exactly
// the state it would after a sequential run.
func (rp *ringPair) drain() {
	for {
		b, ok := rp.data.pop()
		if !ok {
			break
		}
		rp.ch.push(b)
	}
	for {
		b, ok := rp.free.pop()
		if !ok {
			break
		}
		rp.ch.recycle(b)
	}
}

// portBind resolves one endpoint port for the worker loop: exactly one of
// ch (intra-worker link), rp (cross-worker link) is non-nil, or neither
// (unconnected port).
type portBind struct {
	ch *channel
	rp *ringPair
}

func (b portBind) connected() bool { return b.ch != nil || b.rp != nil }

// epPlan is one endpoint's precompiled schedule entry: port bindings and
// reusable scratch, so the hot loop performs no lookups.
type epPlan struct {
	idx     int // index into Runner.endpoints (and metrics arrays)
	ep      Endpoint
	name    string
	eager   EagerStarter // non-nil when ep wants the per-round prepass
	in, out []portBind
	ins     []*token.Batch
	outs    []*token.Batch
	scratch []*token.Batch // per unconnected output port
	empty   *token.Batch   // read-only input for unconnected input ports
}

// ringSpin is how many failed pop/push attempts a worker burns before
// yielding the processor. Within a link's slack window attempts never
// fail; at the window edge the neighbour is at most one round of work
// away, so a short spin usually beats a scheduler round trip.
const ringSpin = 128

// popWait/pushWait block until the ring yields/accepts a batch — or until
// abort is raised, which happens when a sibling worker's endpoint
// panicked and will never produce (or consume) the batch this worker is
// waiting on. The abort check sits on the slow path only: within a link's
// slack window the first attempt succeeds and the flag is never loaded.
func popWait(q *spscRing, abort *atomic.Bool) (*token.Batch, bool) {
	for i := 0; ; i++ {
		if b, ok := q.pop(); ok {
			return b, true
		}
		if i >= ringSpin {
			if abort.Load() {
				return nil, false
			}
			runtime.Gosched()
		}
	}
}

func pushWait(q *spscRing, b *token.Batch, abort *atomic.Bool) bool {
	for i := 0; ; i++ {
		if q.push(b) {
			return true
		}
		if i >= ringSpin {
			if abort.Load() {
				return false
			}
			runtime.Gosched()
		}
	}
}

// buildCrossRings replaces every channel whose producer and consumer land
// on different workers with an SPSC ring pair. On error the already-built
// rings are drained back so the runner state stays coherent
// (checkpointable, sequentially runnable).
func (r *Runner) buildCrossRings(owner []int) (map[*channel]*ringPair, error) {
	consOf := r.chanConsumer()
	rings := make(map[*channel]*ringPair, 2*len(r.links))
	for i := range r.endpoints {
		for _, ch := range r.outCh[i] {
			if ch == nil || owner[i] == owner[consOf[ch]] {
				continue
			}
			rp, err := r.newRingPair(ch, r.metrics)
			if err != nil {
				for _, built := range rings {
					built.drain()
				}
				return nil, err
			}
			rings[ch] = rp
		}
	}
	return rings, nil
}

// buildPlans precompiles each worker's schedule: one epPlan per endpoint,
// port bindings resolved against the cross-worker rings.
func (r *Runner) buildPlans(parts [][]int, rings map[*channel]*ringPair, n int) [][]*epPlan {
	plans := make([][]*epPlan, len(parts))
	for w, eps := range parts {
		empty := token.NewBatch(n)
		for _, i := range eps {
			e := r.endpoints[i]
			np := e.NumPorts()
			pl := &epPlan{
				idx:     i,
				ep:      e,
				name:    e.Name(),
				eager:   asEagerStarter(e),
				in:      make([]portBind, np),
				out:     make([]portBind, np),
				ins:     make([]*token.Batch, np),
				outs:    make([]*token.Batch, np),
				scratch: make([]*token.Batch, np),
				empty:   empty,
			}
			for p := 0; p < np; p++ {
				if ch := r.inCh[i][p]; ch != nil {
					if rp := rings[ch]; rp != nil {
						pl.in[p] = portBind{rp: rp}
					} else {
						pl.in[p] = portBind{ch: ch}
					}
				}
				if ch := r.outCh[i][p]; ch != nil {
					if rp := rings[ch]; rp != nil {
						pl.out[p] = portBind{rp: rp}
					} else {
						pl.out[p] = portBind{ch: ch}
					}
				} else {
					pl.scratch[p] = token.NewBatch(n)
				}
			}
			plans[w] = append(plans[w], pl)
		}
	}
	return plans
}

// asEagerStarter resolves the optional prepass capability once at plan
// build time, so the hot loops test a field instead of a type assertion.
func asEagerStarter(e Endpoint) EagerStarter {
	if s, ok := e.(EagerStarter); ok {
		return s
	}
	return nil
}

// runParallel is RunParallel plus a wall-time measurement covering only
// the round loops (the cold-start round, if any, and the decoupled loop):
// build, partitioning, ring construction and the final drain all happen
// outside the clock, matching what run times for the sequential
// scheduler.
func (r *Runner) runParallel(cycles clock.Cycles) (time.Duration, error) {
	if err := r.checkRun(cycles); err != nil {
		return 0, err
	}
	rounds := int(cycles / r.step)
	m := r.metrics

	// Cold start: with more than one worker to balance and an endpoint
	// not yet measured, the first round runs on the sequential loop with
	// every tick timed, and the rest of the call is partitioned by what
	// it measured.
	first := 0
	var wall time.Duration
	cost, sampled := r.costVector()
	if !sampled && min(r.Workers(), len(r.endpoints)) > 1 {
		w, err := r.seqLoop(0, 1, true)
		if err != nil {
			return w, err
		}
		first, wall = 1, w
		if rounds == 1 {
			r.effWorkers, r.schedUnits = 1, len(r.endpoints)
			return wall, nil
		}
		cost, _ = r.costVector()
	}

	parts := r.partition(r.Workers(), cost)
	r.effWorkers = len(parts)
	if m != nil {
		m.imbalance.Set(imbalancePermille(parts, cost))
	}
	if len(parts) == 1 {
		// One worker owns every endpoint, so there is nothing to
		// synchronize: the worker-pool loop would be the sequential loop
		// with extra indirection. Run the sequential scheduler itself —
		// this is what makes RunParallel no slower than Run on a
		// single-core host. The sequential loop schedules each endpoint
		// individually, so the unit count matches pool mode.
		r.schedUnits = len(r.endpoints)
		w, err := r.seqLoop(first, rounds, false)
		return wall + w, err
	}

	n := int(r.step)
	owner := make([]int, len(r.endpoints))
	for w, eps := range parts {
		for _, i := range eps {
			owner[i] = w
		}
	}

	rings, err := r.buildCrossRings(owner)
	if err != nil {
		return wall, err
	}
	plans := r.buildPlans(parts, rings, n)

	var loopWall time.Duration
	var panicErr *EndpointPanicError
	if r.multiplexed {
		r.schedUnits = len(parts)
		loopWall, panicErr = r.muxLoop(buildMuxPlans(plans), owner[0], first, rounds, n, m)
	} else {
		r.schedUnits = len(r.endpoints)
		loopWall, panicErr = r.poolLoop(plans, owner[0], first, rounds, n, m)
	}
	wall += loopWall

	// Move ring state back into the persistent channel queues so a
	// subsequent sequential Run or checkpoint Save continues seamlessly.
	// Iterate in endpoint/port order (not map order) for a deterministic
	// drain sequence.
	for i := range r.endpoints {
		for _, ch := range r.outCh[i] {
			if ch == nil {
				continue
			}
			if rp := rings[ch]; rp != nil {
				rp.drain()
			}
		}
	}
	if panicErr != nil {
		// Target time does not advance: the run was torn mid-round, so
		// r.cycle still names the last coherent checkpointable boundary a
		// caller could have saved. The drained channel populations are NOT
		// coherent (workers unwound at arbitrary points), hence the poison
		// until Restore rewinds them.
		r.poisoned = true
		return wall, panicErr
	}
	r.cycle += clock.Cycles(rounds-first) * r.step
	if m != nil {
		m.runWall.Add(uint64(loopWall.Nanoseconds()))
		m.cycleGauge.Set(int64(r.cycle))
	}
	return wall, nil
}

// poolLoop runs the default per-endpoint scheduling mode: one goroutine
// per worker, each iterating its endpoints' plans in global registration
// order every round, for rounds [first, rounds) of the call. Returns the
// round-loop wall time and the contained panic, if any (the caller drains
// rings and poisons the runner).
func (r *Runner) poolLoop(plans [][]*epPlan, hbWorker, first, rounds, n int, m *runnerMetrics) (time.Duration, *EndpointPanicError) {
	base := r.cycle
	start := time.Now()

	// Panic containment (see panic.go): the first worker whose endpoint
	// panics records the structured error and raises abort; every other
	// worker notices on its next slow-path ring wait (or round boundary)
	// and unwinds. The rings are drained by the caller regardless, so the
	// runner stays structurally coherent — just poisoned until a Restore.
	var abort atomic.Bool
	var panicMu sync.Mutex
	var panicErr *EndpointPanicError

	var wg sync.WaitGroup
	for w := range plans {
		wg.Add(1)
		go func(w int, plans []*epPlan) {
			defer wg.Done()
			curName := "<worker>"
			curWin := base
			defer func() {
				if v := recover(); v != nil {
					abort.Store(true)
					panicMu.Lock()
					if panicErr == nil {
						panicErr = &EndpointPanicError{Endpoint: curName, Cycle: curWin, Value: v, Stack: debug.Stack()}
					}
					panicMu.Unlock()
				}
			}()
			heartbeat := hbWorker == w
			var hbRounds, accToks uint64
			// Per-endpoint token counts batch locally (indexed like this
			// worker's plans) and flush on sampled rounds and at run end,
			// mirroring the sequential runner.
			var epAcc []uint64
			if m != nil {
				epAcc = make([]uint64, len(plans))
			}
			// Eager endpoints on this worker: their inputs pop early each
			// round so StartBatch overlaps the rest of the round.
			var eagers []*epPlan
			for _, pl := range plans {
				if pl.eager != nil {
					eagers = append(eagers, pl)
				}
			}
			for round := first; round < rounds; round++ {
				if abort.Load() {
					return
				}
				winStart := base + clock.Cycles(round-first)*r.step
				curWin = winStart
				for _, pl := range eagers {
					curName = pl.name
					in := pl.ins
					for p := range pl.in {
						switch bind := pl.in[p]; {
						case bind.rp != nil:
							b, ok := popWait(bind.rp.data, &abort)
							if !ok {
								return
							}
							in[p] = b
						case bind.ch != nil:
							in[p] = bind.ch.pop()
						default:
							in[p] = pl.empty
						}
					}
					if inj := r.injector; inj != nil {
						for p := range pl.in {
							if pl.in[p].connected() {
								inj.FilterInput(pl.name, p, winStart, in[p])
							}
						}
					}
					pl.eager.StartBatch(n, in)
				}
				// Tick timing samples the same round indices as the
				// sequential runner so the histograms stay comparable;
				// each tick pays its own two clock reads so ring-wait
				// time never pollutes the histogram. The same reads feed
				// the measured cost the next call partitions by, so they
				// are taken with or without metrics attached.
				sampled := round&tickSampleMask == 0
				for pi, pl := range plans {
					curName = pl.name
					in, out := pl.ins, pl.outs
					for p := range pl.in {
						if pl.eager == nil {
							switch bind := pl.in[p]; {
							case bind.rp != nil:
								b, ok := popWait(bind.rp.data, &abort)
								if !ok {
									return
								}
								in[p] = b
							case bind.ch != nil:
								in[p] = bind.ch.pop()
							default:
								in[p] = pl.empty
							}
						}
						switch bind := pl.out[p]; {
						case bind.rp != nil:
							if b, ok := bind.rp.free.pop(); ok {
								b.Reset(n)
								out[p] = b
							} else {
								if m != nil {
									m.poolAllocs.Inc()
								}
								out[p] = token.NewBatch(n)
							}
						case bind.ch != nil:
							out[p] = bind.ch.take(n)
						default:
							pl.scratch[p].Reset(n)
							out[p] = pl.scratch[p]
						}
					}
					if inj := r.injector; inj != nil && pl.eager == nil {
						for p := range pl.in {
							if pl.in[p].connected() {
								inj.FilterInput(pl.name, p, winStart, in[p])
							}
						}
					}
					var t0 time.Time
					if sampled {
						t0 = time.Now()
					}
					pl.ep.TickBatch(n, in, out)
					if sampled {
						d := time.Since(t0).Nanoseconds()
						r.costs[pl.idx].add(d)
						if m != nil {
							m.tick[pl.idx].Observe(uint64(d))
						}
					}
					if m != nil {
						var toks uint64
						for p := range pl.out {
							if pl.out[p].connected() {
								toks += uint64(len(out[p].Slots))
							}
						}
						if toks > 0 {
							epAcc[pi] += toks
							accToks += toks
						}
					}
					if inj := r.injector; inj != nil {
						for p := range pl.out {
							if pl.out[p].connected() {
								inj.FilterOutput(pl.name, p, winStart, out[p])
							}
						}
					}
					for p := range pl.out {
						switch bind := pl.out[p]; {
						case bind.rp != nil:
							if !pushWait(bind.rp.data, out[p], &abort) {
								return
							}
						case bind.ch != nil:
							bind.ch.push(out[p])
						}
						switch bind := pl.in[p]; {
						case bind.rp != nil:
							if !bind.rp.free.push(in[p]) {
								// Unreachable with the depth+3+slack sizing;
								// the counter is a regression tripwire
								// asserted zero by tests.
								if m != nil {
									m.poolDrops.Inc()
								}
							}
						case bind.ch != nil:
							bind.ch.recycle(in[p])
						}
					}
				}
				if m != nil {
					if sampled {
						if accToks > 0 {
							m.tokens.Add(accToks)
							accToks = 0
						}
						for pi, t := range epAcc {
							if t > 0 {
								m.epTokens[plans[pi].idx].Add(t)
								epAcc[pi] = 0
							}
						}
					}
					// Workers advance decoupled, so any one is an equally
					// good progress heartbeat; the worker owning endpoint 0
					// reports for the group. The gauge is corrected to the
					// exact final cycle after the barrier below.
					if heartbeat {
						hbRounds++
						if sampled {
							m.rounds.Add(hbRounds)
							m.cycles.Add(hbRounds * uint64(r.step))
							hbRounds = 0
							m.cycleGauge.Set(int64(winStart + r.step))
						}
					}
				}
			}
			if m != nil {
				if hbRounds > 0 {
					m.rounds.Add(hbRounds)
					m.cycles.Add(hbRounds * uint64(r.step))
				}
				if accToks > 0 {
					m.tokens.Add(accToks)
				}
				for pi, t := range epAcc {
					if t > 0 {
						m.epTokens[plans[pi].idx].Add(t)
					}
				}
			}
		}(w, plans[w])
	}
	wg.Wait()
	wall := time.Since(start)
	return wall, panicErr
}
