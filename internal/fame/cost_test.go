package fame

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/token"
)

// forceCosts overwrites the runner's measured tick costs with a settled
// vector, so the next RunParallel partitions by exactly cost.
func forceCosts(r *Runner, cost []int) {
	for i, c := range cost {
		r.costs[i] = tickCost{mean: c, samples: costMemory}
	}
}

// TestPartitionBalancesMeasuredCost is the soc-mix shape: eight 1-port
// blades behind one idle 8-port ToR on two workers, four blades with
// every hart busy and four with one. Weighed by measured cost each worker
// carries half the work. The port-count proxy the partitioner used before
// weighed the idle hub as much as all eight blades together (8 of 16), so
// no blade could merge with it and worst-fit packing put the hub alone on
// one worker and every blade on the other.
func TestPartitionBalancesMeasuredCost(t *testing.T) {
	r := NewRunner()
	hubEp := &hub{name: "tor", ports: 8}
	var leaves []*hub
	for i := 0; i < 8; i++ {
		leaf := &hub{name: fmt.Sprintf("blade%d", i), ports: 1}
		leaves = append(leaves, leaf)
		r.Add(leaf)
	}
	r.Add(hubEp)
	for i, leaf := range leaves {
		if err := r.Connect(leaf, 0, hubEp, i, 8); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.build(); err != nil {
		t.Fatal(err)
	}
	const heavy, light, idle = 4000, 1000, 3
	cost := make([]int, 9)
	for i := range leaves {
		cost[i] = heavy
		if i >= 4 {
			cost[i] = light
		}
	}
	cost[8] = idle
	total := 4*heavy + 4*light + idle

	parts := r.partition(2, cost)
	if len(parts) != 2 {
		t.Fatalf("got %d parts, want 2: %v", len(parts), parts)
	}
	for w, part := range parts {
		sum := 0
		for _, i := range part {
			sum += cost[i]
		}
		if half := float64(total) / 2; float64(sum) < 0.9*half || float64(sum) > 1.1*half {
			t.Errorf("worker %d carries cost %d of %d, want within 10%% of half: %v", w, sum, total, parts)
		}
	}
	if got := imbalancePermille(parts, cost); got > 1100 {
		t.Errorf("measured partition imbalance %d permille, want <= 1100", got)
	}

	byPorts := r.partition(2, portCosts(r))
	if len(byPorts) != 2 || len(byPorts[0]) != 1 || byPorts[0][0] != 8 || len(byPorts[1]) != 8 {
		t.Errorf("port-count partition = %v, want all eight blades on one worker and the hub alone", byPorts)
	}
	if got := imbalancePermille(byPorts, cost); got < 1900 {
		t.Errorf("port-count partition imbalance %d permille under measured cost, want >= 1900", got)
	}
}

// cycleInjector drops tokens at odd cycles like dropOddInjector and XORs
// each emitted token's absolute cycle into its data, so a scheduler that
// mislabels a window's start cycle changes the stream.
type cycleInjector struct{ dropOddInjector }

func (c *cycleInjector) FilterOutput(ep string, port int, start clock.Cycles, b *token.Batch) {
	b.Mutate(func(offset int, tok token.Token) token.Token {
		tok.Data ^= uint64(start) + uint64(offset)
		return tok
	})
}

// TestRepartitionBetweenCallsEquivalence forces a different cost vector,
// and with it a different partition, before every RunParallel call, in
// pool and mux modes with an injector active, and rewinds to a mid-run
// checkpoint of the parallel run to replay the second half under yet
// other partitions. The first call starts cold, so its first round runs
// sequentially and the rest under a measured partition. After every call
// the checkpoint bytes (which carry each endpoint's hash of the token
// stream it received) must equal the sequential run's.
func TestRepartitionBetweenCallsEquivalence(t *testing.T) {
	const slice = 32 // four rounds of the chain's step 8
	costs := [][]int{{1, 1, 1, 1}, {10, 1, 1, 1}, {1, 1, 1, 10}, {1, 10, 1, 1}}
	build := func() (*Runner, []snapshot.Snapshotter) {
		r, a, r1, r2, z := faultChain()
		r.SetInjector(&cycleInjector{})
		return r, []snapshot.Snapshotter{a, r1, r2, z}
	}

	ref, refComps := build()
	var want [][]byte
	for k := 0; k < 2*len(costs); k++ {
		if err := ref.Run(slice); err != nil {
			t.Fatal(err)
		}
		want = append(want, saveChainState(t, ref, refComps...))
	}

	for _, mux := range []bool{false, true} {
		for _, workers := range []int{2, 3} {
			r, comps := build()
			if err := r.SetWorkers(workers); err != nil {
				t.Fatal(err)
			}
			r.SetMultiplexed(mux)
			if r.Step() == 0 {
				t.Fatal("chain did not build")
			}
			partitions := make(map[string]bool)
			var mid []byte
			runSlices := func(from, rotate int) {
				for k := from; k < len(want); k++ {
					if k > 0 {
						cost := costs[(k+rotate)%len(costs)]
						forceCosts(r, cost)
						partitions[fmt.Sprint(r.partition(workers, cost))] = true
					}
					if err := r.RunParallel(slice); err != nil {
						t.Fatalf("mux=%v workers=%d slice %d: %v", mux, workers, k, err)
					}
					got := saveChainState(t, r, comps...)
					if !bytes.Equal(got, want[k]) {
						t.Errorf("mux=%v workers=%d rotate=%d: checkpoint after slice %d differs from the sequential run", mux, workers, rotate, k)
					}
					if k == len(want)/2-1 && mid == nil {
						mid = got
					}
				}
			}
			runSlices(0, 0)
			restoreChainState(t, mid, r, comps...)
			runSlices(len(want)/2, 1)
			if len(partitions) < 3 {
				t.Errorf("mux=%v workers=%d: only %d distinct partitions across calls, want >= 3", mux, workers, len(partitions))
			}
		}
	}
}

// TestColdStartMeasuresCosts: a plain Run measures nothing; the first
// RunParallel on an unmeasured runner runs its first round sequentially
// with every tick timed, and a one-round call ends there. The next call
// partitions by the measured costs across the requested workers and
// exports the partition's imbalance.
func TestColdStartMeasuresCosts(t *testing.T) {
	r, _, _ := buildSweepTopology(t, true)
	reg := obs.NewRegistry("cold")
	r.EnableMetrics(reg)
	if err := r.Run(16); err != nil {
		t.Fatal(err)
	}
	for i, c := range r.costs {
		if c.samples != 0 {
			t.Fatalf("plain Run sampled endpoint %d's cost", i)
		}
	}
	if err := r.SetWorkers(2); err != nil {
		t.Fatal(err)
	}
	if err := r.RunParallel(r.Step()); err != nil {
		t.Fatal(err)
	}
	if _, sampled := r.costVector(); !sampled {
		t.Fatal("cold-start round left endpoints unmeasured")
	}
	if got := r.EffectiveWorkers(); got != 1 {
		t.Errorf("one-round cold start ran %d workers, want 1 (sequential)", got)
	}
	if err := r.RunParallel(64); err != nil {
		t.Fatal(err)
	}
	if got := r.EffectiveWorkers(); got != 2 {
		t.Errorf("measured run used %d workers, want 2", got)
	}
	if got := reg.Snapshot().Gauges["fame_partition_imbalance_permille"]; got < 1000 {
		t.Errorf("fame_partition_imbalance_permille = %d, want >= 1000", got)
	}
}
