package fame

import (
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/token"
)

// This file implements the FAME-style many-nodes-per-worker multiplexing
// mode of the parallel scheduler (SetMultiplexed). It is the scheduler-
// level analogue of the FAME-5 Multiplex endpoint wrapper: where Multiplex
// hosts several target models on one simulated physical pipeline, this
// mode hosts a worker's whole endpoint group on one *scheduling unit* —
// one fused plan with a single flattened port-binding table, ticked once
// per round.
//
// Why it exists: the default pool mode compiles one epPlan per endpoint,
// so a 1024-node datacenter (~1100 endpoints) carries ~1100 schedule
// entries — ~1100 heap objects, each with five slice headers, walked
// through two levels of indirection every round. In multiplexed mode the
// same topology on 8 workers compiles into 8 muxPlans: per worker, ONE
// contiguous portBind array, ONE batch arena, members addressed by port
// span (lo, hi) offsets. The paper's host-multithreading trade-off
// applies unchanged: host cost of a unit tick grows with the member
// count, but the schedulable-unit population stays bounded by the worker
// count instead of the node count — which is what lets
// hostplatform.PackUnits-style packing (shared with the distributed
// reshard path via partition()) treat worker assignment and process
// assignment as the same problem.
//
// Determinism: a unit ticks its members in global registration order and
// performs the identical per-member pop → filter → tick → filter → push
// sequence as the pool loop and the sequential scheduler, so token
// streams, injector windows and metrics are bit-identical for every
// worker count (TestMuxWorkerSweepEquivalence, TestMuxCheckpointMidRun,
// TestMuxMetricsEquivalence — all also under fault injection).

// SetMultiplexed selects (or, with false, deselects) the
// many-nodes-per-worker scheduling mode for subsequent RunParallel calls.
// Like SetWorkers it may be called between runs; mid-run changes are not
// supported. Host-side tuning only: simulated behaviour is bit-identical
// in both modes.
func (r *Runner) SetMultiplexed(on bool) { r.multiplexed = on }

// Multiplexed reports whether the many-nodes-per-worker mode is selected.
func (r *Runner) Multiplexed() bool { return r.multiplexed }

// muxMember locates one endpoint inside a fused unit: its global index
// (for metrics arrays), and the span [lo, hi) of the unit's flat port
// arrays it owns.
type muxMember struct {
	idx    int
	ep     Endpoint
	name   string
	eager  EagerStarter // non-nil when ep wants the per-round prepass
	lo, hi int
}

// muxPlan is one worker's fused scheduling unit: every member's port
// bindings and batch scratch live in shared contiguous arrays, addressed
// by the member's span.
type muxPlan struct {
	members []muxMember
	in, out []portBind
	ins     []*token.Batch
	outs    []*token.Batch
	scratch []*token.Batch // non-nil per unconnected output port
	empty   *token.Batch   // read-only input for unconnected input ports
}

// buildMuxPlans fuses each worker's per-endpoint plans into one unit.
// The pool-mode plans are the single source of truth for port binding
// resolution, so the two modes cannot disagree about which links cross
// workers.
func buildMuxPlans(plans [][]*epPlan) []*muxPlan {
	units := make([]*muxPlan, len(plans))
	for w, eps := range plans {
		ports := 0
		for _, pl := range eps {
			ports += len(pl.in)
		}
		u := &muxPlan{
			members: make([]muxMember, 0, len(eps)),
			in:      make([]portBind, 0, ports),
			out:     make([]portBind, 0, ports),
			ins:     make([]*token.Batch, ports),
			outs:    make([]*token.Batch, ports),
			scratch: make([]*token.Batch, 0, ports),
		}
		for _, pl := range eps {
			lo := len(u.in)
			u.in = append(u.in, pl.in...)
			u.out = append(u.out, pl.out...)
			u.scratch = append(u.scratch, pl.scratch...)
			u.members = append(u.members, muxMember{
				idx: pl.idx, ep: pl.ep, name: pl.name, eager: pl.eager,
				lo: lo, hi: len(u.in),
			})
			if u.empty == nil {
				u.empty = pl.empty
			}
		}
		units[w] = u
	}
	return units
}

// muxLoop runs the multiplexed scheduling mode: one goroutine per unit
// (== per worker), each ticking its fused member table once per round.
// Panic containment, heartbeat cadence, tick-timing sample rounds, cost
// sampling and token accounting all mirror poolLoop exactly; only the
// schedule representation differs. Returns the round-loop wall time and
// the contained panic, if any (the caller drains rings and poisons the
// runner).
func (r *Runner) muxLoop(units []*muxPlan, hbWorker, first, rounds, n int, m *runnerMetrics) (time.Duration, *EndpointPanicError) {
	base := r.cycle
	start := time.Now()

	var abort atomic.Bool
	var panicMu sync.Mutex
	var panicErr *EndpointPanicError

	var wg sync.WaitGroup
	for w := range units {
		wg.Add(1)
		go func(w int, u *muxPlan) {
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
			// Per-member token counts batch locally and flush on sampled
			// rounds and at run end, mirroring the other schedulers.
			var epAcc []uint64
			if m != nil {
				epAcc = make([]uint64, len(u.members))
			}
			// Eager members of this unit: their span inputs pop early each
			// round so StartBatch overlaps the rest of the round.
			var eagers []*muxMember
			for mi := range u.members {
				if u.members[mi].eager != nil {
					eagers = append(eagers, &u.members[mi])
				}
			}
			for round := first; round < rounds; round++ {
				if abort.Load() {
					return
				}
				winStart := base + clock.Cycles(round-first)*r.step
				curWin = winStart
				for _, mem := range eagers {
					curName = mem.name
					for p := mem.lo; p < mem.hi; p++ {
						switch bind := u.in[p]; {
						case bind.rp != nil:
							b, ok := popWait(bind.rp.data, &abort)
							if !ok {
								return
							}
							u.ins[p] = b
						case bind.ch != nil:
							u.ins[p] = bind.ch.pop()
						default:
							u.ins[p] = u.empty
						}
					}
					if inj := r.injector; inj != nil {
						for p := mem.lo; p < mem.hi; p++ {
							if u.in[p].connected() {
								inj.FilterInput(mem.name, p-mem.lo, winStart, u.ins[p])
							}
						}
					}
					mem.eager.StartBatch(n, u.ins[mem.lo:mem.hi])
				}
				sampled := round&tickSampleMask == 0
				for mi := range u.members {
					mem := &u.members[mi]
					curName = mem.name
					// The member's ports are the span [lo, hi) of the
					// unit's flat arrays; the in/out views handed to
					// TickBatch are subslices of the shared arena.
					for p := mem.lo; p < mem.hi; p++ {
						if mem.eager == nil {
							switch bind := u.in[p]; {
							case bind.rp != nil:
								b, ok := popWait(bind.rp.data, &abort)
								if !ok {
									return
								}
								u.ins[p] = b
							case bind.ch != nil:
								u.ins[p] = bind.ch.pop()
							default:
								u.ins[p] = u.empty
							}
						}
						switch bind := u.out[p]; {
						case bind.rp != nil:
							if b, ok := bind.rp.free.pop(); ok {
								b.Reset(n)
								u.outs[p] = b
							} else {
								if m != nil {
									m.poolAllocs.Inc()
								}
								u.outs[p] = token.NewBatch(n)
							}
						case bind.ch != nil:
							u.outs[p] = bind.ch.take(n)
						default:
							u.scratch[p].Reset(n)
							u.outs[p] = u.scratch[p]
						}
					}
					if inj := r.injector; inj != nil && mem.eager == nil {
						for p := mem.lo; p < mem.hi; p++ {
							if u.in[p].connected() {
								inj.FilterInput(mem.name, p-mem.lo, winStart, u.ins[p])
							}
						}
					}
					var t0 time.Time
					if sampled {
						t0 = time.Now()
					}
					mem.ep.TickBatch(n, u.ins[mem.lo:mem.hi], u.outs[mem.lo:mem.hi])
					if sampled {
						d := time.Since(t0).Nanoseconds()
						r.costs[mem.idx].add(d)
						if m != nil {
							m.tick[mem.idx].Observe(uint64(d))
						}
					}
					if m != nil {
						var toks uint64
						for p := mem.lo; p < mem.hi; p++ {
							if u.out[p].connected() {
								toks += uint64(len(u.outs[p].Slots))
							}
						}
						if toks > 0 {
							epAcc[mi] += toks
							accToks += toks
						}
					}
					if inj := r.injector; inj != nil {
						for p := mem.lo; p < mem.hi; p++ {
							if u.out[p].connected() {
								inj.FilterOutput(mem.name, p-mem.lo, winStart, u.outs[p])
							}
						}
					}
					for p := mem.lo; p < mem.hi; p++ {
						switch bind := u.out[p]; {
						case bind.rp != nil:
							if !pushWait(bind.rp.data, u.outs[p], &abort) {
								return
							}
						case bind.ch != nil:
							bind.ch.push(u.outs[p])
						}
						switch bind := u.in[p]; {
						case bind.rp != nil:
							if !bind.rp.free.push(u.ins[p]) {
								// Unreachable with the depth+3+slack sizing;
								// tripwire asserted zero by tests.
								if m != nil {
									m.poolDrops.Inc()
								}
							}
						case bind.ch != nil:
							bind.ch.recycle(u.ins[p])
						}
					}
				}
				if m != nil {
					if sampled {
						if accToks > 0 {
							m.tokens.Add(accToks)
							accToks = 0
						}
						for mi, t := range epAcc {
							if t > 0 {
								m.epTokens[u.members[mi].idx].Add(t)
								epAcc[mi] = 0
							}
						}
					}
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
				for mi, t := range epAcc {
					if t > 0 {
						m.epTokens[u.members[mi].idx].Add(t)
					}
				}
			}
		}(w, units[w])
	}
	wg.Wait()
	wall := time.Since(start)
	return wall, panicErr
}
