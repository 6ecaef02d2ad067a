package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/clock"
	"repro/internal/fame"
)

// instance is one freshly built in-process simulation.
type instance struct {
	runner   *fame.Runner
	parallel bool
	// layers maps every endpoint name to the layer it belongs to.
	layers map[string]string
	// save writes the whole simulation's checkpoint stream.
	save func(w io.Writer) error
	// fresh builds an unrun copy of the simulation, the target a
	// checkpoint is restored into: load restores a checkpoint stream into
	// it and save checkpoints it again, for comparison.
	fresh func() (load func(data []byte) error, save func(io.Writer) error, err error)
	// outcome digests simulated results that the checkpoint does not carry
	// (nil when the checkpoint is the whole outcome).
	outcome func(h io.Writer)
	// counters reads the target-side work counters of every layer.
	counters func() layerCounters
}

func (in *instance) run(c clock.Cycles) error {
	if in.parallel {
		return in.runner.RunParallel(c)
	}
	return in.runner.Run(c)
}

// digest is the simulated-outcome digest: the checkpoint stream where
// every component checkpoints, plus target-side statistics otherwise.
func (in *instance) digest() (uint64, error) {
	h := fnv.New64a()
	if in.save != nil {
		if err := in.save(h); err != nil {
			return 0, fmt.Errorf("digest: %w", err)
		}
	}
	if in.outcome != nil {
		in.outcome(h)
	}
	return h.Sum64(), nil
}

// ckptShare is how much checkpoint time each timed episode spends, as a
// share of its timed regions, taking at least minCkpts checkpoints of its
// final state: cheap checkpoints are repeated until their median is steady.
const (
	ckptShare = 0.15
	minCkpts  = 3
)

// ckptResult is one checkpoint of a whole simulation and its restore.
type ckptResult struct {
	save, restore time.Duration
	bytes         int
}

func (c ckptResult) totalMs() float64 { return float64(c.save+c.restore) / 1e6 }

// checkpoint saves the simulation, restores it into a freshly built copy
// and checks that the restored copy checkpoints to the same bytes. Building
// the copy is not timed: set-up time already covers construction. sizeHint
// pre-sizes the buffer the checkpoint is written to, so its growth is not
// timed as checkpoint cost.
func (in *instance) checkpoint(sizeHint int) (ckptResult, error) {
	load, resave, err := in.fresh()
	if err != nil {
		return ckptResult{}, fmt.Errorf("restore target: %w", err)
	}
	var buf bytes.Buffer
	buf.Grow(sizeHint)
	coldHeap()
	t0 := time.Now()
	if err := in.save(&buf); err != nil {
		return ckptResult{}, fmt.Errorf("checkpoint: %w", err)
	}
	t1 := time.Now()
	err = load(buf.Bytes())
	t2 := time.Now()
	if err != nil {
		return ckptResult{}, fmt.Errorf("restore: %w", err)
	}
	var again bytes.Buffer
	if err := resave(&again); err != nil {
		return ckptResult{}, fmt.Errorf("checkpoint of the restored copy: %w", err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		return ckptResult{}, fmt.Errorf("restored simulation differs from the checkpointed one")
	}
	return ckptResult{save: t1.Sub(t0), restore: t2.Sub(t1), bytes: buf.Len()}, nil
}

// layerCounters are target-side work counts, read from the components.
type layerCounters struct {
	instret, sbInstret, partIdle, skipped     float64
	hartCycles, socCycles                     float64
	dramReads, dramWrites, rowHits, rowMisses float64
	framesSent, framesRecv                    float64
	flitsOut, packetsOut, drops               float64
}

// plus returns c + k·o, field by field.
func (c layerCounters) plus(o layerCounters, k float64) layerCounters {
	return layerCounters{
		c.instret + k*o.instret, c.sbInstret + k*o.sbInstret, c.partIdle + k*o.partIdle, c.skipped + k*o.skipped,
		c.hartCycles + k*o.hartCycles, c.socCycles + k*o.socCycles,
		c.dramReads + k*o.dramReads, c.dramWrites + k*o.dramWrites, c.rowHits + k*o.rowHits, c.rowMisses + k*o.rowMisses,
		c.framesSent + k*o.framesSent, c.framesRecv + k*o.framesRecv,
		c.flitsOut + k*o.flitsOut, c.packetsOut + k*o.packetsOut, c.drops + k*o.drops,
	}
}

// record writes the work-count metrics, with per-unit costs taken from
// the layers' traced self time.
func (c layerCounters) record(r *report, layerNs map[string]float64) {
	r.one("soc.instret", "count", c.instret)
	r.one("soc.mips", "MIPS", ratio(c.instret, layerNs[layerSoC]/1e3))
	r.one("soc.superblock_share", "ratio", ratio(c.sbInstret, c.instret))
	r.one("soc.partial_idle_share", "ratio", ratio(c.partIdle, c.hartCycles))
	r.one("soc.skipped_share", "ratio", ratio(c.skipped, c.socCycles))
	r.one("dram.reads", "count", c.dramReads)
	r.one("dram.writes", "count", c.dramWrites)
	r.one("dram.row_hit_rate", "ratio", ratio(c.rowHits, c.rowHits+c.rowMisses))
	r.one("softstack.frames_sent", "count", c.framesSent)
	r.one("softstack.frames_recv", "count", c.framesRecv)
	r.one("softstack.ns_per_frame", "ns", ratio(layerNs[layerSoftstack], c.framesSent+c.framesRecv))
	r.one("switchmodel.flits_out", "count", c.flitsOut)
	r.one("switchmodel.packets_out", "count", c.packetsOut)
	r.one("switchmodel.drops", "count", c.drops)
	r.one("switchmodel.ns_per_flit", "ns", ratio(layerNs[layerSwitch], c.flitsOut))
}

// inprocWorkload is a workload simulated inside the benchmark process.
type inprocWorkload struct {
	name string
	// parallel selects RunParallel for the measured runs; the reference
	// run uses the other scheduler.
	parallel bool
	// step is the runner's batch size; region is a multiple of it.
	step clock.Cycles
	// region is the target cycles one timed region simulates, and
	// regions how many regions one episode times.
	region  clock.Cycles
	regions int
	// tail is simulated untimed after the regions, before the outcome is
	// digested (memcached-tree drains outstanding requests in it).
	tail clock.Cycles
	// minEpisodes is the fewest episodes a run makes, so set-up time is
	// always a median of several builds.
	minEpisodes int
	// ckptBytes is the size of the latest checkpoint, the next one's
	// buffer size.
	ckptBytes int
	build     func(seed uint64, parallel bool) (*instance, error)
}

// episode is one build, warm-up and timed simulation of a workload.
type episode struct {
	inst    *instance
	setup   time.Duration
	regions []time.Duration
	wall    time.Duration
	digest  uint64
	work    layerCounters // counted over the timed regions
	spans   *spanInjector
}

// horizon is the target cycle an episode ends at: one warm-up step, the
// timed regions and the tail.
func (w *inprocWorkload) horizon() clock.Cycles {
	return w.step + w.region*clock.Cycles(w.regions) + w.tail
}

// run builds, warms and times one episode. Set-up covers construction and
// the first step, in which the runner builds its schedule. A non-nil
// traced flag installs a timing injector for the timed regions.
func (w *inprocWorkload) run(seed uint64, parallel, traced bool) (*episode, error) {
	t0 := time.Now()
	inst, err := w.build(seed, parallel)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", w.name, err)
	}
	if err := inst.run(w.step); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	ep := &episode{inst: inst, setup: time.Since(t0)}
	// Collect the garbage earlier work left, so the timed regions pay
	// only for the collections their own allocations cause.
	runtime.GC()
	before := inst.counters()
	if traced {
		ep.spans = newSpanInjector(inst.layers, nil, !parallel)
		inst.runner.SetInjector(ep.spans)
	}
	for i := 0; i < w.regions; i++ {
		t := time.Now()
		if err := inst.run(w.region); err != nil {
			return nil, fmt.Errorf("%s: region %d: %w", w.name, i, err)
		}
		d := time.Since(t)
		ep.regions = append(ep.regions, d)
		ep.wall += d
	}
	inst.runner.SetInjector(nil)
	ep.work = inst.counters().plus(before, -1)
	if w.tail > 0 {
		if err := inst.run(w.tail); err != nil {
			return nil, fmt.Errorf("%s: tail: %w", w.name, err)
		}
	}
	if ep.digest, err = inst.digest(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return ep, nil
}

// mhz is the simulation rate of a region in target MHz.
func mhz(cycles clock.Cycles, d time.Duration) float64 {
	return float64(cycles) / d.Seconds() / 1e6
}

// sameDigest is the outcome check of one operation.
func sameDigest(what string, got, want uint64) error {
	if got != want {
		return fmt.Errorf("%s: outcome digest %016x differs from the reference %016x", what, got, want)
	}
	return nil
}

// schedName names a scheduler for messages.
func schedName(parallel bool) string {
	if parallel {
		return "RunParallel"
	}
	return "Run"
}

func selfRSS() float64 {
	mb, err := peakRSSMB(strconv.Itoa(os.Getpid()))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: peak RSS:", err)
	}
	return mb
}

// measure runs the workload for the report: the untraced end-to-end pass,
// or the traced per-layer pass.
func (w *inprocWorkload) measure(o options, r *report) error {
	// The reference: one run of the same seed on the other scheduler.
	ref, err := w.run(o.seed, !w.parallel, false)
	if err != nil {
		return err
	}
	refDigest, refWall := ref.digest, ref.wall
	ref = nil
	fmt.Printf("%s: reference on %s: digest %016x at cycle %d\n", w.name, schedName(!w.parallel), refDigest, w.horizon())
	if o.trace {
		return w.measureTraced(o, r, refDigest, refWall)
	}

	var rates, setups, ckpts, peaks []float64
	var measured time.Duration
	start := time.Now()
	// Episodes that error time nothing; the wall-clock cap ends a run in
	// which every episode fails.
	for n := 0; n < w.minEpisodes || (measured < o.budget() && time.Since(start) < 3*o.budget()); n++ {
		// Peak memory is measured per episode: build, timed regions and
		// checkpoints.
		resetPeakRSS()
		ep, err := w.run(o.seed, w.parallel, false)
		if err != nil {
			r.op(err)
			continue
		}
		setups = append(setups, ep.setup.Seconds())
		var spent time.Duration
		for i := 0; i < minCkpts || float64(spent) < ckptShare*float64(ep.wall); i++ {
			ck, err := ep.inst.checkpoint(w.ckptBytes)
			r.op(err)
			if err != nil {
				break
			}
			w.ckptBytes = ck.bytes
			ckpts = append(ckpts, ck.totalMs())
			spent += ck.save + ck.restore
		}
		peaks = append(peaks, selfRSS())
		for _, d := range ep.regions {
			rates = append(rates, mhz(w.region, d))
		}
		measured += ep.wall
		r.op(sameDigest(w.name+" "+schedName(w.parallel), ep.digest, refDigest))
	}
	simulated := w.region * clock.Cycles(len(rates))
	r.values["sim_mhz"] = value{v: mhz(simulated, measured), unit: "MHz", n: len(rates), spread: spread(rates)}
	r.values["sim_mhz_p10"] = value{v: quantile(rates, 0.1), unit: "MHz", n: len(rates), spread: spread(rates)}
	r.median("setup_s", "s", setups)
	r.median("peak_rss_mb", "MB", peaks)
	r.median("ckpt_ms", "ms", ckpts)
	return nil
}

// measureTraced alternates untraced and traced episodes, so the per-layer
// numbers come with the tracing overhead and a digest check of each.
func (w *inprocWorkload) measureTraced(o options, r *report, refDigest uint64, refWall time.Duration) error {
	zeroPerLayer(r)
	var tot spanTotals
	var plain, traced time.Duration
	var plainWalls []float64
	var work layerCounters
	var last *episode
	for n := 0; n == 0 || plain+traced < o.budget(); n++ {
		p, err := w.run(o.seed, w.parallel, false)
		if err != nil {
			return err
		}
		r.op(sameDigest(w.name+" untraced", p.digest, refDigest))
		t, err := w.run(o.seed, w.parallel, true)
		if err != nil {
			return err
		}
		r.op(sameDigest(w.name+" traced", t.digest, p.digest))
		plain += p.wall
		plainWalls = append(plainWalls, float64(p.wall))
		traced += t.wall
		tot.add(t.spans)
		work = work.plus(t.work, 1)
		tot.rounds += float64(w.region) * float64(w.regions) / float64(w.step)
		tot.workers, tot.schedU = 1, len(t.inst.layers)
		if w.parallel {
			tot.workers, tot.schedU = t.inst.runner.EffectiveWorkers(), t.inst.runner.SchedUnits()
		}
		last = t
	}
	tot.wall = traced
	tot.overhead = float64(traced)/float64(plain) - 1
	if err := tot.record(r); err != nil {
		return err
	}
	work.record(r, tot.layerNs)

	seqWall, parWall := float64(refWall), median(plainWalls)
	if !w.parallel {
		seqWall, parWall = parWall, seqWall
	}
	r.one("fame.parallel_speedup", "x", ratio(seqWall, parWall))

	ck, err := last.inst.checkpoint(w.ckptBytes)
	r.op(err)
	if err == nil {
		r.one("snapshot.save_ms", "ms", float64(ck.save)/1e6)
		r.one("snapshot.restore_ms", "ms", float64(ck.restore)/1e6)
		r.one("snapshot.bytes", "B", float64(ck.bytes))
	}
	return nil
}

// zeroPerLayer sets every per-layer metric to 0, the value a layer the
// workload does not exercise reports; the workload overwrites the rest.
func zeroPerLayer(r *report) {
	for _, d := range perLayer {
		r.one(d.name, d.unit, 0)
	}
}
