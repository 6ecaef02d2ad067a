package fame

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/token"
)

// hub is a partition-test stub: an inert endpoint with an arbitrary port
// count, standing in for a switch.
type hub struct {
	name  string
	ports int
}

func (h *hub) Name() string                            { return h.name }
func (h *hub) NumPorts() int                           { return h.ports }
func (h *hub) TickBatch(n int, in, out []*token.Batch) {}

// starRunner builds the bench-like star: one hub with `leaves` ports, one
// single-port leaf endpoint per port.
func starRunner(t *testing.T, leaves int) *Runner {
	t.Helper()
	r := NewRunner()
	sw := &hub{name: "sw", ports: leaves}
	r.Add(sw)
	for i := 0; i < leaves; i++ {
		leaf := &hub{name: "leaf" + string(rune('a'+i)), ports: 1}
		r.Add(leaf)
		if err := r.Connect(leaf, 0, sw, i, 8); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// portCosts weighs every endpoint by its port count. The partition goldens
// below were written when the partitioner derived exactly these weights
// itself; they now pass them as the explicit cost vector and keep their
// expected assignments.
func portCosts(r *Runner) []int {
	cost := make([]int, len(r.endpoints))
	for i, e := range r.endpoints {
		cost[i] = e.NumPorts()
	}
	return cost
}

func TestSetWorkersValidation(t *testing.T) {
	r := NewRunner()
	if err := r.SetWorkers(-1); err == nil {
		t.Error("SetWorkers(-1) accepted")
	}
	if err := r.SetWorkers(0); err != nil {
		t.Errorf("SetWorkers(0) rejected: %v", err)
	}
	if got, want := r.Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Workers() with 0 = %d, want GOMAXPROCS %d", got, want)
	}
	if err := r.SetWorkers(3); err != nil {
		t.Fatal(err)
	}
	if got := r.Workers(); got != 3 {
		t.Errorf("Workers() = %d, want 3", got)
	}
}

// TestPartitionProperties checks the partitioner invariants on the
// bench-like star: every endpoint appears exactly once, parts are in index
// order, the part count never exceeds the worker count, and the result is
// a pure function of the topology and the cost vector (two calls agree).
func TestPartitionProperties(t *testing.T) {
	r := starRunner(t, 8)
	if err := r.build(); err != nil {
		t.Fatal(err)
	}
	for workers := 1; workers <= 12; workers++ {
		parts := r.partition(workers, portCosts(r))
		if len(parts) > workers {
			t.Fatalf("workers=%d: %d parts", workers, len(parts))
		}
		if again := r.partition(workers, portCosts(r)); !reflect.DeepEqual(parts, again) {
			t.Fatalf("workers=%d: partition not deterministic:\n%v\n%v", workers, parts, again)
		}
		seen := make(map[int]bool)
		for _, part := range parts {
			if len(part) == 0 {
				t.Fatalf("workers=%d: empty part", workers)
			}
			for j, idx := range part {
				if j > 0 && part[j-1] >= idx {
					t.Fatalf("workers=%d: part %v not in index order", workers, part)
				}
				if seen[idx] {
					t.Fatalf("workers=%d: endpoint %d in two parts", workers, idx)
				}
				seen[idx] = true
			}
		}
		if len(seen) != 9 {
			t.Fatalf("workers=%d: partition covers %d of 9 endpoints", workers, len(seen))
		}
	}
}

// TestPartitionCoLocatesLinkedPairs: with slack in the balance cap, the
// endpoints of a link must land on the same worker so the link needs no
// synchronization. A two-endpoint chain split across two of four workers
// would be the pathological case.
func TestPartitionCoLocatesLinkedPairs(t *testing.T) {
	r := NewRunner()
	var eps []*hub
	for i := 0; i < 8; i++ {
		e := &hub{name: "e" + string(rune('a'+i)), ports: 1}
		eps = append(eps, e)
		r.Add(e)
	}
	for i := 0; i < 8; i += 2 {
		if err := r.Connect(eps[i], 0, eps[i+1], 0, 8); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.build(); err != nil {
		t.Fatal(err)
	}
	parts := r.partition(4, portCosts(r))
	owner := make(map[int]int)
	for w, part := range parts {
		for _, idx := range part {
			owner[idx] = w
		}
	}
	for i := 0; i < 8; i += 2 {
		if owner[i] != owner[i+1] {
			t.Errorf("linked pair (%d,%d) split across workers %d/%d (parts %v)", i, i+1, owner[i], owner[i+1], parts)
		}
	}
	if len(parts) != 4 {
		t.Errorf("got %d parts, want 4 (one pair each): %v", len(parts), parts)
	}
}

// buildSweepTopology is a star with real traffic: two sources and a wire
// feeding two sinks plus a cross link, exercising multiple link latencies
// (step = gcd = 8) and an endpoint mix that forces cross-worker rings for
// every worker count > 1.
func buildSweepTopology(t *testing.T, inject bool) (*Runner, *Sink, *Sink) {
	t.Helper()
	r := NewRunner()
	srcA := NewSource("srcA")
	srcB := NewSource("srcB")
	wire := NewWire("wire")
	sinkA := NewSink("sinkA")
	sinkB := NewSink("sinkB")
	for _, e := range []Endpoint{srcA, srcB, wire, sinkA, sinkB} {
		r.Add(e)
	}
	if err := r.Connect(srcA, 0, wire, 0, 8); err != nil {
		t.Fatal(err)
	}
	if err := r.Connect(wire, 1, sinkB, 0, 16); err != nil {
		t.Fatal(err)
	}
	if err := r.Connect(srcB, 0, sinkA, 0, 24); err != nil {
		t.Fatal(err)
	}
	for c := int64(0); c < 48; c++ {
		srcA.EmitAt(c, token.Token{Data: uint64(c) + 100, Valid: true, Last: c%4 == 3})
		srcB.EmitAt(c*2, token.Token{Data: uint64(c) + 500, Valid: true})
	}
	if inject {
		r.SetInjector(&dropOddInjector{mask: 0xff00})
	}
	return r, sinkA, sinkB
}

// testWorkerSweepEquivalence is the tentpole determinism contract: for
// every worker count (including counts above the endpoint count), with and
// without fault injection, RunParallel must deliver streams bit-identical
// to the sequential scheduler. On a single-core host this still exercises
// the multi-worker ring path — workers make progress via Gosched. The mux
// flag runs the same contract through the many-nodes-per-worker mode
// (TestMuxWorkerSweepEquivalence), which must be indistinguishable on
// every observable except the scheduling-unit count, asserted here too.
func testWorkerSweepEquivalence(t *testing.T, mux bool) {
	const numEndpoints = 5 // buildSweepTopology registers five
	for _, inject := range []bool{false, true} {
		ref, refA, refB := buildSweepTopology(t, inject)
		if err := ref.Run(240); err != nil {
			t.Fatal(err)
		}
		if len(refA.Received) == 0 || len(refB.Received) == 0 {
			t.Fatal("reference run delivered no tokens")
		}
		for workers := 1; workers <= 7; workers++ {
			r, sa, sb := buildSweepTopology(t, inject)
			if err := r.SetWorkers(workers); err != nil {
				t.Fatal(err)
			}
			r.SetMultiplexed(mux)
			if err := r.RunParallel(240); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(refA.Received, sa.Received) {
				t.Errorf("inject=%v workers=%d: sinkA diverged from sequential", inject, workers)
			}
			if !reflect.DeepEqual(refB.Received, sb.Received) {
				t.Errorf("inject=%v workers=%d: sinkB diverged from sequential", inject, workers)
			}
			// Accounting: the effective worker count is what actually ran
			// (capped at the endpoint count, empty bins dropped), and the
			// scheduling-unit count is per-endpoint in pool mode but
			// per-worker in multiplexed mode.
			eff := r.EffectiveWorkers()
			if eff < 1 || eff > workers || eff > numEndpoints {
				t.Errorf("inject=%v workers=%d: EffectiveWorkers() = %d out of range [1, min(%d, %d)]",
					inject, workers, eff, workers, numEndpoints)
			}
			wantUnits := numEndpoints
			if mux && eff > 1 {
				wantUnits = eff
			}
			if got := r.SchedUnits(); got != wantUnits {
				t.Errorf("inject=%v workers=%d mux=%v: SchedUnits() = %d, want %d",
					inject, workers, mux, got, wantUnits)
			}
		}
	}
}

func TestWorkerSweepEquivalence(t *testing.T) { testWorkerSweepEquivalence(t, false) }

// testCheckpointMidParallel is the keystone snapshot property under
// the worker pool: checkpoint between RunParallel batches with forced
// multi-worker scheduling, restore, re-run — state bytes must match the
// uninterrupted run exactly. This is what requires runParallel to drain
// its rings back into the persistent channel queues. The mux flag holds
// the multiplexed mode to the identical contract
// (TestMuxCheckpointMidRun).
func testCheckpointMidParallel(t *testing.T, mux bool) {
	const n, m = 64, 128
	save := func(r *Runner, a, z *pulse) []byte {
		var buf bytes.Buffer
		w, err := snapshot.NewWriter(&buf, snapshot.Header{Cycle: uint64(r.Cycle()), Step: uint64(r.Step())})
		if err != nil {
			t.Fatal(err)
		}
		w.Section("state")
		for _, s := range []snapshot.Snapshotter{r, a, z} {
			if err := s.Save(w); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	r1, a1, z1 := pulsePair()
	if err := r1.SetWorkers(2); err != nil {
		t.Fatal(err)
	}
	r1.SetMultiplexed(mux)
	if err := r1.RunParallel(n); err != nil {
		t.Fatal(err)
	}
	ck := save(r1, a1, z1)
	if err := r1.RunParallel(m); err != nil {
		t.Fatal(err)
	}
	want := save(r1, a1, z1)

	for _, workers := range []int{1, 2, 3} {
		r2, a2, z2 := pulsePair()
		if err := r2.SetWorkers(workers); err != nil {
			t.Fatal(err)
		}
		r2.SetMultiplexed(mux)
		rd, _, err := snapshot.NewReader(bytes.NewReader(ck))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rd.Next(); err != nil {
			t.Fatal(err)
		}
		for _, s := range []snapshot.Snapshotter{r2, a2, z2} {
			if err := s.Restore(rd); err != nil {
				t.Fatal(err)
			}
		}
		if err := r2.RunParallel(m); err != nil {
			t.Fatal(err)
		}
		if got := save(r2, a2, z2); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: restored parallel run diverged from original", workers)
		}
	}
}

func TestCheckpointMidParallelWorkers(t *testing.T) { testCheckpointMidParallel(t, false) }

// testMultiWorkerMetrics forces the cross-worker ring path and holds it
// to the same fame_* contract the default path satisfies: exact
// round/cycle/token counters, one tick observation per sampled round per
// endpoint, and zero pool drops (the counted-error seeding satellite).
// With mux it holds the multiplexed mode's flattened accounting to the
// same numbers (TestMuxMetricsEquivalence).
func testMultiWorkerMetrics(t *testing.T, mux bool) {
	const latency = clock.Cycles(8)
	const cycles = clock.Cycles(8 * 50)

	seqReg := obs.NewRegistry("seq")
	seq, _ := buildObsTopology(t, latency, 20)
	seq.EnableMetrics(seqReg)
	if err := seq.Run(cycles); err != nil {
		t.Fatal(err)
	}
	ss := seqReg.Snapshot()

	for _, workers := range []int{2, 3} {
		parReg := obs.NewRegistry("par")
		par, _ := buildObsTopology(t, latency, 20)
		par.EnableMetrics(parReg)
		if err := par.SetWorkers(workers); err != nil {
			t.Fatal(err)
		}
		par.SetMultiplexed(mux)
		if err := par.RunParallel(cycles); err != nil {
			t.Fatal(err)
		}
		ps := parReg.Snapshot()
		if got, want := ps.Counters["fame_rounds_total"], uint64(cycles/latency); got != want {
			t.Errorf("workers=%d: fame_rounds_total = %d, want %d", workers, got, want)
		}
		if got := ps.Counters["fame_cycles_total"]; got != uint64(cycles) {
			t.Errorf("workers=%d: fame_cycles_total = %d, want %d", workers, got, cycles)
		}
		if got := ps.Gauges["fame_cycle"]; got != int64(cycles) {
			t.Errorf("workers=%d: fame_cycle = %d, want %d", workers, got, cycles)
		}
		if got := ps.Counters["fame_pool_drops_total"]; got != 0 {
			t.Errorf("workers=%d: fame_pool_drops_total = %d, want 0", workers, got)
		}
		if st, pt := ss.Counters["fame_tokens_total"], ps.Counters["fame_tokens_total"]; st != pt {
			t.Errorf("workers=%d: fame_tokens_total = %d, want %d", workers, pt, st)
		}
		wantTicks := sampledRounds(uint64(cycles / latency))
		for _, ep := range []string{"src", "wire", "sink"} {
			name := obs.Label("fame_tick_nanos", "endpoint", ep)
			if got := ps.Histograms[name].Count; got != wantTicks {
				t.Errorf("workers=%d: %s count = %d, want %d", workers, name, got, wantTicks)
			}
			tname := obs.Label("fame_endpoint_tokens_total", "endpoint", ep)
			if ss.Counters[tname] != ps.Counters[tname] {
				t.Errorf("workers=%d: %s diverged: seq=%d par=%d", workers, tname, ss.Counters[tname], ps.Counters[tname])
			}
		}
	}
}

func TestMultiWorkerMetricsEquivalence(t *testing.T) { testMultiWorkerMetrics(t, false) }

// TestRandomTopologyWorkerEquivalence reuses the property-test generator
// idea at a smaller scale: random stars, random worker counts, streams
// must match the sequential scheduler bit for bit.
func TestRandomTopologyWorkerEquivalence(t *testing.T) {
	for leaves := 2; leaves <= 5; leaves++ {
		build := func() (*Runner, []*Sink) {
			r := NewRunner()
			w := NewWire("w")
			r.Add(w)
			src := NewSource("src")
			r.Add(src)
			if err := r.Connect(src, 0, w, 0, 8); err != nil {
				t.Fatal(err)
			}
			var sinks []*Sink
			s := NewSink("s0")
			r.Add(s)
			sinks = append(sinks, s)
			if err := r.Connect(w, 1, s, 0, 8); err != nil {
				t.Fatal(err)
			}
			for i := 1; i < leaves; i++ {
				extra := NewSource("x" + string(rune('0'+i)))
				es := NewSink("xs" + string(rune('0'+i)))
				r.Add(extra)
				r.Add(es)
				if err := r.Connect(extra, 0, es, 0, clock.Cycles(8*i)); err != nil {
					t.Fatal(err)
				}
				extra.EmitPacketAt(int64(i)*3, []uint64{uint64(i), uint64(i) * 7})
				sinks = append(sinks, es)
			}
			src.EmitPacketAt(1, []uint64{1, 2, 3})
			src.EmitPacketAt(33, []uint64{4})
			return r, sinks
		}
		ref, refSinks := build()
		if err := ref.Run(24 * 8); err != nil {
			t.Fatal(err)
		}
		for workers := 2; workers <= 4; workers++ {
			r, sinks := build()
			if err := r.SetWorkers(workers); err != nil {
				t.Fatal(err)
			}
			if err := r.RunParallel(24 * 8); err != nil {
				t.Fatal(err)
			}
			for i := range sinks {
				if !reflect.DeepEqual(refSinks[i].Received, sinks[i].Received) {
					t.Errorf("leaves=%d workers=%d sink %d diverged", leaves, workers, i)
				}
			}
		}
	}
}

// TestParallelKnobValidation covers the tuning-knob surface: negative
// values are rejected, accepted values round-trip through the accessors,
// and the multiplexed toggle reads back.
func TestParallelKnobValidation(t *testing.T) {
	r := NewRunner()
	if err := r.SetRingSlack(-1); err == nil {
		t.Error("SetRingSlack(-1) accepted")
	}
	if err := r.SetRingSlack(4); err != nil {
		t.Fatal(err)
	}
	if got := r.RingSlack(); got != 4 {
		t.Errorf("RingSlack() = %d, want 4", got)
	}
	if err := r.SetBalanceSlackPct(-1); err == nil {
		t.Error("SetBalanceSlackPct(-1) accepted")
	}
	if err := r.SetBalanceSlackPct(50); err != nil {
		t.Fatal(err)
	}
	if got := r.BalanceSlackPct(); got != 50 {
		t.Errorf("BalanceSlackPct() = %d, want 50", got)
	}
	if r.Multiplexed() {
		t.Error("Multiplexed() true by default")
	}
	r.SetMultiplexed(true)
	if !r.Multiplexed() {
		t.Error("SetMultiplexed(true) did not stick")
	}
}

// TestPartitionEdgeCases pins the partitioner's behaviour at the corners
// the sweep topologies never reach: an endpoint heavier than the balance
// cap, more workers than endpoints, zero-port endpoints, and a chain that
// saturates the cap. Each case asserts coverage (every endpoint exactly
// once), the balance bound, and determinism.
func TestPartitionEdgeCases(t *testing.T) {
	cover := func(t *testing.T, r *Runner, parts [][]int, workers int) map[int]int {
		t.Helper()
		if len(parts) > workers {
			t.Fatalf("%d parts for %d workers", len(parts), workers)
		}
		if again := r.partition(workers, portCosts(r)); !reflect.DeepEqual(parts, again) {
			t.Fatalf("partition not deterministic:\n%v\n%v", parts, again)
		}
		owner := make(map[int]int)
		for w, part := range parts {
			if len(part) == 0 {
				t.Fatalf("empty part in %v", parts)
			}
			for _, idx := range part {
				if _, dup := owner[idx]; dup {
					t.Fatalf("endpoint %d in two parts: %v", idx, parts)
				}
				owner[idx] = w
			}
		}
		if len(owner) != len(r.endpoints) {
			t.Fatalf("partition covers %d of %d endpoints: %v", len(owner), len(r.endpoints), parts)
		}
		return owner
	}

	t.Run("heavy endpoint exceeds cap", func(t *testing.T) {
		// Hub weight 16 > cap ceil(32/4)=8: it cannot merge or share, so
		// it must sit alone while the leaves level the remaining bins.
		r := starRunner(t, 16)
		if err := r.build(); err != nil {
			t.Fatal(err)
		}
		parts := r.partition(4, portCosts(r))
		owner := cover(t, r, parts, 4)
		hubPart := parts[owner[0]]
		if len(hubPart) != 1 {
			t.Errorf("over-cap hub shares a part: %v", hubPart)
		}
		for w, part := range parts {
			if w == owner[0] {
				continue
			}
			if len(part) > 8 { // leaf weight 1 each; cap is 8
				t.Errorf("leaf part %d weight %d exceeds cap 8", w, len(part))
			}
		}
	})

	t.Run("workers exceed endpoints", func(t *testing.T) {
		r, _, _ := buildSweepTopology(t, false)
		if err := r.build(); err != nil {
			t.Fatal(err)
		}
		parts := r.partition(12, portCosts(r))
		cover(t, r, parts, 12)
		if len(parts) > 5 {
			t.Errorf("%d parts for 5 endpoints", len(parts))
		}
	})

	t.Run("zero-port endpoints", func(t *testing.T) {
		// Zero-port endpoints weigh 1 (cost floor), partition cleanly,
		// and run without port bindings in both scheduler modes.
		r := NewRunner()
		a := NewSource("a")
		z := NewSink("z")
		idle1 := &hub{name: "idle1", ports: 0}
		idle2 := &hub{name: "idle2", ports: 0}
		for _, e := range []Endpoint{a, idle1, z, idle2} {
			r.Add(e)
		}
		if err := r.Connect(a, 0, z, 0, 8); err != nil {
			t.Fatal(err)
		}
		a.EmitAt(0, token.Token{Data: 9, Valid: true})
		if err := r.build(); err != nil {
			t.Fatal(err)
		}
		cover(t, r, r.partition(3, portCosts(r)), 3)
		for _, mux := range []bool{false, true} {
			if err := r.SetWorkers(3); err != nil {
				t.Fatal(err)
			}
			r.SetMultiplexed(mux)
			if err := r.RunParallel(16); err != nil {
				t.Fatalf("mux=%v: %v", mux, err)
			}
		}
		if len(z.Received) != 1 {
			t.Errorf("sink received %d tokens, want 1", len(z.Received))
		}
	})

	t.Run("balance cap saturation", func(t *testing.T) {
		// A six-endpoint chain (two ports each, weight 2, cap 4): pairwise
		// merges land exactly on the cap, every further merge is refused,
		// and packing degenerates to one pair per worker — the fully
		// saturated fixed point.
		r := NewRunner()
		var eps []*hub
		for i := 0; i < 6; i++ {
			e := &hub{name: "c" + string(rune('0'+i)), ports: 2}
			eps = append(eps, e)
			r.Add(e)
		}
		for i := 0; i < 5; i++ {
			if err := r.Connect(eps[i], 1, eps[i+1], 0, 8); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.build(); err != nil {
			t.Fatal(err)
		}
		parts := r.partition(3, portCosts(r))
		cover(t, r, parts, 3)
		if want := [][]int{{0, 1}, {2, 3}, {4, 5}}; !reflect.DeepEqual(parts, want) {
			t.Errorf("saturated chain packed %v, want %v", parts, want)
		}
	})
}

// TestPartitionPackingTieBreak is the packing-determinism golden: six
// equal-weight isolated endpoints onto three workers must round-robin by
// ascending index (the PackUnits tie-break the partitioner inherits), not
// land in whatever order a map iteration produced.
func TestPartitionPackingTieBreak(t *testing.T) {
	// partition is a pure function of endpoints, links and costs; no
	// build() needed (a link-free topology would not build anyway).
	r := NewRunner()
	for i := 0; i < 6; i++ {
		r.Add(&hub{name: "i" + string(rune('0'+i)), ports: 1})
	}
	parts := r.partition(3, portCosts(r))
	if want := [][]int{{0, 3}, {1, 4}, {2, 5}}; !reflect.DeepEqual(parts, want) {
		t.Errorf("tie-break packed %v, want %v", parts, want)
	}
}

// TestPartitionBalanceSlackCoLocates shows the balance-slack knob doing
// its one job: a linked pair whose merge the strict cap refuses co-locates
// once the cap is loosened, and the partition stays deterministic at every
// setting.
func TestPartitionBalanceSlackCoLocates(t *testing.T) {
	build := func() *Runner {
		r := NewRunner()
		a := &hub{name: "a", ports: 2}
		b := &hub{name: "b", ports: 2}
		c := &hub{name: "c", ports: 1}
		d := &hub{name: "d", ports: 1}
		for _, e := range []*hub{a, b, c, d} {
			r.Add(e)
		}
		if err := r.Connect(a, 0, b, 0, 8); err != nil {
			t.Fatal(err)
		}
		return r
	}
	ownerOf := func(r *Runner, slackPct int) (int, int) {
		if err := r.SetBalanceSlackPct(slackPct); err != nil {
			t.Fatal(err)
		}
		if err := r.build(); err != nil {
			t.Fatal(err)
		}
		parts := r.partition(2, portCosts(r))
		owner := make(map[int]int)
		for w, part := range parts {
			for _, idx := range part {
				owner[idx] = w
			}
		}
		return owner[0], owner[1]
	}
	// total weight 6, 2 workers, cap 3: the a—b merge (weight 4) is
	// refused and worst-fit packing seeds a and b into different bins.
	if oa, ob := ownerOf(build(), 0); oa == ob {
		t.Errorf("strict cap: a and b co-located (slack should be required)")
	}
	// 50%% slack: cap 4, the merge fits, the pair shares a worker.
	if oa, ob := ownerOf(build(), 50); oa != ob {
		t.Errorf("50%% slack: linked pair a—b still split")
	}
}

// TestRingSlackEquivalence sweeps the tuning knobs across both scheduler
// modes: whatever slack the rings carry and however loose the balance
// cap, the streams must stay bit-identical to the sequential scheduler —
// the knobs are host-side only.
func TestRingSlackEquivalence(t *testing.T) {
	ref, refA, refB := buildSweepTopology(t, true)
	if err := ref.Run(240); err != nil {
		t.Fatal(err)
	}
	for _, mux := range []bool{false, true} {
		for _, ringSlack := range []int{1, 4} {
			for _, balancePct := range []int{0, 100} {
				r, sa, sb := buildSweepTopology(t, true)
				if err := r.SetWorkers(3); err != nil {
					t.Fatal(err)
				}
				r.SetMultiplexed(mux)
				if err := r.SetRingSlack(ringSlack); err != nil {
					t.Fatal(err)
				}
				if err := r.SetBalanceSlackPct(balancePct); err != nil {
					t.Fatal(err)
				}
				if err := r.RunParallel(240); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(refA.Received, sa.Received) || !reflect.DeepEqual(refB.Received, sb.Received) {
					t.Errorf("mux=%v ringSlack=%d balancePct=%d: streams diverged from sequential",
						mux, ringSlack, balancePct)
				}
			}
		}
	}
}
