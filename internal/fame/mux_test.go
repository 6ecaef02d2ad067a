package fame

import (
	"bytes"
	"testing"

	"repro/internal/snapshot"
)

// The multiplexed scheduler (mux.go) claims bit-identity with the
// sequential and pool schedulers on every observable: token streams,
// injector windows, checkpoint bytes, metrics and panic containment.
// These tests hold it to that claim by running the exact contracts the
// pool mode already satisfies, through the fused-unit code path.

// TestMuxWorkerSweepEquivalence: streams bit-identical to the sequential
// scheduler for every worker count, with and without fault injection,
// plus the SchedUnits/EffectiveWorkers accounting that distinguishes the
// mode (units == effective workers, not endpoints).
func TestMuxWorkerSweepEquivalence(t *testing.T) { testWorkerSweepEquivalence(t, true) }

// TestMuxCheckpointMidRun: checkpoint between multiplexed RunParallel
// batches, restore, re-run — state bytes must match the uninterrupted
// run, which requires the fused units to drain their rings back into the
// persistent channels exactly like the pool mode.
func TestMuxCheckpointMidRun(t *testing.T) { testCheckpointMidParallel(t, true) }

// TestMuxMetricsEquivalence: the flattened per-member accounting must
// produce the same fame_* counters, gauges and tick histograms as the
// sequential scheduler, with zero pool drops.
func TestMuxMetricsEquivalence(t *testing.T) { testMultiWorkerMetrics(t, true) }

// TestMuxPanicContainment: a panicking member surfaces as a structured
// EndpointPanicError naming the member (not the fused unit), the runner
// poisons, and a restore + disarmed replay lands bit-identical.
func TestMuxPanicContainment(t *testing.T) { testPanicContainment(t, true, true) }

// TestMuxCrossModeRestore is the interoperability half of the checkpoint
// contract: a checkpoint written under one scheduling mode must restore
// and continue under the other, because mode is host-side tuning and the
// snapshot format knows nothing about it.
func TestMuxCrossModeRestore(t *testing.T) {
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

	// Sequential reference for the full n+m run.
	ref, refA, refZ := pulsePair()
	if err := ref.Run(n + m); err != nil {
		t.Fatal(err)
	}
	want := save(ref, refA, refZ)

	for _, dir := range []struct {
		name             string
		srcMux, dstMux   bool
		srcWork, dstWork int
	}{
		{"mux to pool", true, false, 2, 3},
		{"pool to mux", false, true, 3, 2},
	} {
		t.Run(dir.name, func(t *testing.T) {
			r1, a1, z1 := pulsePair()
			if err := r1.SetWorkers(dir.srcWork); err != nil {
				t.Fatal(err)
			}
			r1.SetMultiplexed(dir.srcMux)
			if err := r1.RunParallel(n); err != nil {
				t.Fatal(err)
			}
			ck := save(r1, a1, z1)

			r2, a2, z2 := pulsePair()
			if err := r2.SetWorkers(dir.dstWork); err != nil {
				t.Fatal(err)
			}
			r2.SetMultiplexed(dir.dstMux)
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
				t.Error("cross-mode restored run diverged from sequential reference")
			}
		})
	}
}

// TestMuxPlanFusion pins the unit-fusion arithmetic directly: every
// worker's endpoints collapse into one muxPlan whose member spans tile
// the flat port arrays exactly, in global registration order.
func TestMuxPlanFusion(t *testing.T) {
	r, _, _ := buildSweepTopology(t, false)
	if err := r.build(); err != nil {
		t.Fatal(err)
	}
	parts := r.partition(3, portCosts(r))
	owner := make([]int, len(r.endpoints))
	for w, eps := range parts {
		for _, i := range eps {
			owner[i] = w
		}
	}
	rings, err := r.buildCrossRings(owner)
	if err != nil {
		t.Fatal(err)
	}
	units := buildMuxPlans(r.buildPlans(parts, rings, int(r.step)))
	defer func() {
		for _, rp := range rings {
			rp.drain()
		}
	}()
	if len(units) != len(parts) {
		t.Fatalf("%d units for %d parts", len(units), len(parts))
	}
	for w, u := range units {
		if len(u.members) != len(parts[w]) {
			t.Errorf("unit %d has %d members, part has %d endpoints", w, len(u.members), len(parts[w]))
		}
		at := 0
		for mi, mem := range u.members {
			if mem.idx != parts[w][mi] {
				t.Errorf("unit %d member %d is endpoint %d, want %d (registration order)", w, mi, mem.idx, parts[w][mi])
			}
			if mem.lo != at {
				t.Errorf("unit %d member %d span starts at %d, want %d (spans must tile)", w, mi, mem.lo, at)
			}
			if want := r.endpoints[mem.idx].NumPorts(); mem.hi-mem.lo != want {
				t.Errorf("unit %d member %d span width %d, want %d ports", w, mi, mem.hi-mem.lo, want)
			}
			at = mem.hi
		}
		if at != len(u.in) || len(u.in) != len(u.out) || len(u.in) != len(u.ins) || len(u.in) != len(u.outs) {
			t.Errorf("unit %d flat arrays ragged: spans end %d, in %d, out %d, ins %d, outs %d",
				w, at, len(u.in), len(u.out), len(u.ins), len(u.outs))
		}
	}
}
