// Command perfbench is the repository's benchmark. It drives the simulator
// only through its public Go APIs and runs one of four workloads, each of
// which makes a different layer do most of the host work:
//
//	soc-mix         cycle-exact quad-core SoC blades (riscv, soc, cache, dram)
//	memcached-tree  memcached request/response traffic in a 64-node tree (softstack, switchmodel, fame)
//	stream-incast   over-subscribed raw streams in a 64-node tree (switchmodel), plus checkpoint/restore
//	dist-stream     a rack cut at its ToR and run in shard processes (transport, manager)
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// attaches a timing injector and reports per-layer metrics. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"sim_mhz": {"value": 1.9, "unit": "MHz"}, ...}}
//
// Run it through run.sh, which builds it from source:
//
//	bash perfbench/run.sh --workload soc-mix --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seconds 4
//
// See README.md for why each workload exists and what each metric means.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "shard" {
		if err := shardMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench shard:", err)
			os.Exit(1)
		}
		return
	}
	if err := benchMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// dir holds scratch files (checkpoint stores, shard reports); it must
	// lie inside the checkout.
	dir string
	// workers is the host parallelism the workloads scale to (nproc).
	workers int
}

// budget is the measured wall time one run aims for.
func (o options) budget() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// workloads maps each workload name to its full-size definition.
func workloads() map[string]func(options, *report) error {
	return map[string]func(options, *report) error{
		"soc-mix":        func(o options, r *report) error { return socMix(o.workers).measure(o, r) },
		"memcached-tree": func(o options, r *report) error { return memcachedTree(o.workers).measure(o, r) },
		"stream-incast":  func(o options, r *report) error { return streamIncast(o.workers).measure(o, r) },
		"dist-stream":    func(o options, r *report) error { return distStream(o.workers).measure(o, r) },
	}
}

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"soc-mix", "memcached-tree", "stream-incast", "dist-stream"}

func benchMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured wall time per run, in seconds")
	traceFlag := fs.Int("trace", 0, "1 attaches the timing injector and reports per-layer metrics")
	fs.StringVar(&o.dir, "dir", ".bench_build", "scratch directory inside the checkout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traceFlag)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	o.trace = *traceFlag == 1
	o.workers = runtime.NumCPU()
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return err
	}

	if o.workload == "all" {
		return runAll(o)
	}
	run, ok := workloads()[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	rep := newReport(o.trace)
	if err := run(o, rep); err != nil {
		return err
	}
	return rep.emit(os.Stdout)
}

// runAll runs every workload once, prints each one's table, and ends with
// one JSON line whose metric names are prefixed by workload.
func runAll(o options) error {
	total := newReport(o.trace)
	for _, name := range workloadNames {
		fmt.Printf("== %s (seed %d, trace %v)\n", name, o.seed, o.trace)
		o.workload = name
		rep := newReport(o.trace)
		if err := workloads()[name](o, rep); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := rep.check(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rep.printTable(os.Stdout)
		total.attempted += rep.attempted
		total.failed += rep.failed
		for k, v := range rep.values {
			total.values[name+"/"+k] = v
		}
	}
	line, err := json.Marshal(total.result())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the user-visible metrics every untraced run reports.
var endToEnd = []metricDef{
	{"sim_mhz", "MHz"},
	{"sim_mhz_p10", "MHz"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ckpt_ms", "ms"},
}

// perLayer are the metrics every traced run reports, grouped by layer.
var perLayer = []metricDef{
	{"fame.self_ms", "ms"},
	{"fame.self_share", "ratio"},
	{"fame.ns_per_round", "ns"},
	{"fame.rounds", "count"},
	{"fame.busy_share", "ratio"},
	{"fame.effective_workers", "count"},
	{"fame.sched_units", "count"},
	{"fame.parallel_speedup", "x"},

	{"soc.self_ms", "ms"},
	{"soc.self_share", "ratio"},
	{"soc.instret", "count"},
	{"soc.mips", "MIPS"},
	{"soc.superblock_share", "ratio"},
	{"soc.partial_idle_share", "ratio"},
	{"soc.skipped_share", "ratio"},
	{"dram.reads", "count"},
	{"dram.writes", "count"},
	{"dram.row_hit_rate", "ratio"},

	{"softstack.self_ms", "ms"},
	{"softstack.self_share", "ratio"},
	{"softstack.frames_sent", "count"},
	{"softstack.frames_recv", "count"},
	{"softstack.ns_per_frame", "ns"},

	{"switchmodel.self_ms", "ms"},
	{"switchmodel.self_share", "ratio"},
	{"switchmodel.flits_out", "count"},
	{"switchmodel.packets_out", "count"},
	{"switchmodel.drops", "count"},
	{"switchmodel.ns_per_flit", "ns"},

	{"transport.self_ms", "ms"},
	{"transport.wire_bytes_per_window", "B"},
	{"transport.wire_ratio", "x"},
	{"transport.loopback_rtt_us", "us"},

	{"manager.window_us_p50", "us"},
	{"manager.window_us_p99", "us"},
	{"manager.window_over_rtt", "x"},
	{"manager.build_ms", "ms"},
	{"manager.probe_mismatch", "count"},

	{"snapshot.save_ms", "ms"},
	{"snapshot.restore_ms", "ms"},
	{"snapshot.bytes", "B"},

	{"trace.overhead_pct", "%"},
}

// value is one metric's reported number plus the samples behind it.
type value struct {
	v      float64
	unit   string
	n      int     // samples the value summarises
	spread float64 // (q3-q1)/median of the samples, 0 for a single sample
}

// report accumulates one run's operations and metrics.
type report struct {
	trace     bool
	attempted int
	failed    int
	failures  []string
	values    map[string]value
}

func newReport(trace bool) *report { return &report{trace: trace, values: make(map[string]value)} }

// op counts one checked operation; a non-nil err marks it failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, err.Error())
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
	}
}

// median records a metric summarised from samples by its median.
func (r *report) median(name, unit string, samples []float64) {
	r.values[name] = value{v: median(samples), unit: unit, n: len(samples), spread: spread(samples)}
}

// one records a metric that is a single measurement or count.
func (r *report) one(name, unit string, v float64) {
	r.values[name] = value{v: v, unit: unit, n: 1}
}

// defs are the metrics this report must carry.
func (r *report) defs() []metricDef {
	if r.trace {
		return perLayer
	}
	return endToEnd
}

// check verifies that exactly the expected metrics were recorded, each
// with its declared unit and a finite value.
func (r *report) check() error {
	want := make(map[string]string)
	for _, d := range r.defs() {
		want[d.name] = d.unit
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if v.unit != d.unit {
			return fmt.Errorf("metric %s has unit %q, want %q", d.name, v.unit, d.unit)
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return fmt.Errorf("metric %s is not finite: %v", d.name, v.v)
		}
	}
	for name := range r.values {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	if r.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	return nil
}

// jsonMetric and jsonResult are the machine-readable last line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *report) result() jsonResult {
	out := jsonResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]jsonMetric)}
	for name, v := range r.values {
		out.Metrics[name] = jsonMetric{Value: v.v, Unit: v.unit}
	}
	return out
}

// printTable writes one human-readable line per metric: value, unit,
// sample count and spread.
func (r *report) printTable(w *os.File) {
	names := make([]string, 0, len(r.values))
	for name := range r.values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.values[name]
		fmt.Fprintf(w, "  %-34s %14.6g %-6s n=%-5d spread=%.4f\n", name, v.v, v.unit, v.n, v.spread)
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed\n", r.attempted, r.failed)
}

// emit checks the report, prints its table and then the JSON line.
func (r *report) emit(w *os.File) error {
	if err := r.check(); err != nil {
		return err
	}
	r.printTable(w)
	line, err := json.Marshal(r.result())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
