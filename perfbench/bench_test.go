package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/manager"
)

// The distributed workload re-executes the running binary as a shard
// process; under `go test` that binary is the test binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "shard" {
		if err := shardMain(os.Args[2:]); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tiny returns every in-process workload at a size that runs in well under
// a second.
func tiny() []*inprocWorkload {
	return []*inprocWorkload{
		socMixWorkload(socMixConfig{blades: 2, sweepBytes: 4096, link: 512, region: 512 * 4, regions: 2}, 2),
		memcachedTreeWorkload(treeConfig{racks: 2, perRack: 3, link: 512, region: 512 * 400, regions: 2, qps: 50_000, drain: 512 * 2000}, 2),
		streamIncastWorkload(treeConfig{racks: 2, perRack: 2, link: 512, region: 512 * 8, regions: 2, gbps: 150, frameBytes: 256}, 2),
	}
}

func tinyDist() *distWorkload {
	return &distWorkload{cfg: distConfig{
		nodes: 2, link: 512, gbps: 100,
		short: 4 * 256, long: 16 * 256, minPairs: 1,
		cut: 8 * 256, ckpts: 1, ckptBatch: 2,
		startAt: 600, probes: knownDivergent, probeHorizon: 8 * 256,
	}, procs: 2}
}

func tinyOptions(t *testing.T, seed uint64, trace bool) options {
	return options{seed: seed, seconds: 0.001, trace: trace, dir: t.TempDir(), workers: 2}
}

// TestTracingKeepsDigest checks that the timing injector leaves every
// workload's simulated outcome unchanged.
func TestTracingKeepsDigest(t *testing.T) {
	for _, w := range tiny() {
		for _, parallel := range []bool{false, true} {
			plain, err := w.run(7, parallel, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := w.run(7, parallel, true)
			if err != nil {
				t.Fatal(err)
			}
			if plain.digest != traced.digest {
				t.Errorf("%s %s: traced digest %016x, untraced %016x", w.name, schedName(parallel), traced.digest, plain.digest)
			}
			if sum(mapValues(traced.spans.byLayer())) <= 0 {
				t.Errorf("%s %s: the injector recorded no tick time", w.name, schedName(parallel))
			}
		}
	}

	d := tinyDist()
	spec, err := d.spec(7, d.cfg.gbps, d.cfg.startAt, d.cfg.cut)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := manager.ReferenceHashes(spec, d.cfg.cut)
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		pr, err := d.buildPartitions(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pr.run(d.cfg.cut, traced); err != nil {
			t.Fatal(err)
		}
		got, err := pr.hashes()
		if err != nil {
			t.Fatal(err)
		}
		if err := checkHashes("dist-stream cut", got, ref); err != nil {
			t.Errorf("traced=%v: %v", traced, err)
		}
		pr.close()
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestDeclaredMetricsEmitted checks that BENCHMARK.json and the program
// agree, and that every workload emits every declared metric with its
// unit in both modes.
func TestDeclaredMetricsEmitted(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(what string, declared []struct{ Name, Unit string }, code []metricDef) {
		if len(declared) != len(code) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", what, len(declared), len(code))
			return
		}
		for i, d := range declared {
			if d.Name != code[i].name || d.Unit != code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", what, i, d.Name, d.Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	for i := range names {
		if names[i] != workloadNames[i] {
			t.Fatalf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
		}
	}

	for _, trace := range []bool{false, true} {
		for _, w := range tiny() {
			r := newReport(trace)
			if err := w.measure(tinyOptions(t, 3, trace), r); err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if err := r.check(); err != nil {
				t.Errorf("%s trace=%v: %v", w.name, trace, err)
			}
		}
		r := newReport(trace)
		if err := tinyDist().measure(tinyOptions(t, 3, trace), r); err != nil {
			t.Fatalf("dist-stream trace=%v: %v", trace, err)
		}
		if err := r.check(); err != nil {
			t.Errorf("dist-stream trace=%v: %v", trace, err)
		}
	}
}

// TestSeedsPassOutcomeChecks runs two seeds: both must pass every outcome
// check, and the seed must actually change the simulated outcome.
func TestSeedsPassOutcomeChecks(t *testing.T) {
	for _, w := range tiny() {
		var digests []uint64
		for _, seed := range []uint64{1, 2} {
			r := newReport(false)
			if err := w.measure(tinyOptions(t, seed, false), r); err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			if r.failed != 0 {
				t.Errorf("%s seed %d: %d of %d operations failed: %v", w.name, seed, r.failed, r.attempted, r.failures)
			}
			ep, err := w.run(seed, w.parallel, false)
			if err != nil {
				t.Fatal(err)
			}
			digests = append(digests, ep.digest)
		}
		if digests[0] == digests[1] {
			t.Errorf("%s: seeds 1 and 2 give the same outcome digest", w.name)
		}
	}
	for _, seed := range []uint64{1, 2} {
		r := newReport(false)
		if err := tinyDist().measure(tinyOptions(t, seed, false), r); err != nil {
			t.Fatalf("dist-stream seed %d: %v", seed, err)
		}
		if r.failed != 0 {
			t.Errorf("dist-stream seed %d: %d of %d operations failed: %v", seed, r.failed, r.attempted, r.failures)
		}
	}
}
