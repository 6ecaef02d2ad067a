package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/clock"
	"repro/internal/manager"
)

// distConfig sizes the dist-stream workload.
type distConfig struct {
	nodes int
	link  uint64
	gbps  float64
	// short and long are the two horizons whose wall times separate the
	// distributed run's fixed set-up cost (intercept) from its per-cycle
	// cost (slope). short is kept small so the intercept carries little
	// of the slope's noise.
	short, long uint64
	minPairs    int
	// cut is the horizon of the in-process partitioned runs (checkpoint
	// and traced windows). A run takes ckpts checkpoint samples, each the
	// mean of ckptBatch back-to-back checkpoints of a fresh cut: one
	// checkpoint of this small cut takes well under a millisecond, too
	// short to time alone against garbage collection and scheduling noise.
	cut       uint64
	ckpts     int
	ckptBatch int
	// startAt is the cycle every stream starts at.
	startAt uint64
	// probes are the untimed identity probes; probeHorizon sizes them.
	probes       []probeSpec
	probeHorizon uint64
}

// probeSpec is one identity probe: a multi-process run in a regime where
// the partitioned switch state is known to diverge from the in-process
// reference. Its outcome is reported, never counted as a benchmark failure.
type probeSpec struct {
	name    string
	gbps    float64
	startAt uint64
}

// knownDivergent are the regimes of the open partition-divergence defect:
// streams above ~150 Gbps, and, at 100 Gbps, streams that start on certain
// cycles (512 at a 512-cycle link, for one).
var knownDivergent = []probeSpec{
	{name: "over-line-rate", gbps: 150, startAt: 600},
	{name: "start-phase", gbps: 100, startAt: 512},
}

// distStream is the token-plane workload: a rack cut at its ToR and run in
// shard processes over loopback TCP, every flow crossing a bridge.
func distStream(workers int) *distWorkload {
	return &distWorkload{cfg: distConfig{
		nodes: 8, link: 512, gbps: 100,
		short: 32 * 256, long: 2048 * 256, minPairs: 3,
		cut: 256 * 256, ckpts: 30, ckptBatch: 20,
		startAt: 600, probes: knownDivergent, probeHorizon: 16384,
	}, procs: workers}
}

type distWorkload struct {
	cfg   distConfig
	procs int
}

// spec is the cluster a dist-stream run simulates: every node streams to
// the next one in a ring. The seed is the deployment seed.
func (w *distWorkload) spec(seed uint64, gbps float64, startAt, horizon uint64) (manager.ClusterSpec, error) {
	spec, err := manager.RackSpec(w.cfg.nodes, manager.DeployConfig{LinkLatency: clock.Cycles(w.cfg.link), Seed: seed})
	if err != nil {
		return spec, err
	}
	spec.Workload = &manager.WorkloadSpec{Kind: "stream", StartAt: startAt, FrameBytes: 200, Gbps: gbps, StopAt: horizon}
	return spec, nil
}

// distRun is one multi-process run.
type distRun struct {
	wall   time.Duration
	report *manager.DistReport
	peakMB float64 // peak RSS of the coordinator or the largest shard
}

// runDistributed runs the spec across shard processes (this binary,
// re-executed in shard mode) and waits until every shard has exited.
func (w *distWorkload) runDistributed(dir string, spec manager.ClusterSpec, horizon uint64) (*distRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	base, err := os.MkdirTemp(dir, "dist-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	var mu sync.Mutex
	var rssFiles []string
	resetPeakRSS()
	t0 := time.Now()
	rep, err := manager.RunDistributed(manager.CoordinatorConfig{
		Spec:      spec,
		Procs:     w.procs,
		BaseDir:   base,
		CkptEvery: horizon,
		Horizon:   horizon,
		Spawn: func(name, controlAddr string) *exec.Cmd {
			mu.Lock()
			f := filepath.Join(base, fmt.Sprintf("rss-%s-%d", name, len(rssFiles)))
			rssFiles = append(rssFiles, f)
			mu.Unlock()
			cmd := exec.Command(self, "shard", "-control", controlAddr, "-name", name, "-rss", f)
			cmd.Stderr = os.Stderr
			return cmd
		},
	})
	wall := time.Since(t0)
	run := &distRun{wall: wall, report: rep, peakMB: selfRSS()}
	mu.Lock()
	files := append([]string(nil), rssFiles...)
	mu.Unlock()
	for _, f := range files {
		pid, mb, rerr := readShardRSS(f)
		if rerr != nil {
			if err == nil {
				err = rerr
			}
			continue
		}
		run.peakMB = max(run.peakMB, mb)
		waitGone(pid)
	}
	return run, err
}

// waitGone waits until a shard process has exited and been reaped. The
// coordinator kills and reaps every shard it spawned when a run ends.
func waitGone(pid int) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := syscall.Kill(pid, 0); err == syscall.ESRCH {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	fmt.Fprintf(os.Stderr, "perfbench: shard process %d still present after 10s\n", pid)
}

func readShardRSS(path string) (pid int, mb float64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("shard peak RSS: %w", err)
	}
	f := strings.Fields(string(data))
	if len(f) != 2 {
		return 0, 0, fmt.Errorf("shard peak RSS file %s is malformed", path)
	}
	if pid, err = strconv.Atoi(f[0]); err != nil {
		return 0, 0, err
	}
	mb, err = strconv.ParseFloat(f[1], 64)
	return pid, mb, err
}

// shardMain is the shard-process mode: it serves one coordinator and keeps
// its own pid and peak RSS in a file the benchmark reads afterwards.
func shardMain(args []string) error {
	fs := flag.NewFlagSet("shard", flag.ContinueOnError)
	control := fs.String("control", "", "coordinator control address host:port")
	name := fs.String("name", "", "process name")
	rss := fs.String("rss", "", "file the shard keeps its pid and peak RSS (MiB) in")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pid := strconv.Itoa(os.Getpid())
	write := func() {
		mb, err := peakRSSMB(pid)
		if err != nil || *rss == "" {
			return
		}
		tmp := *rss + ".tmp"
		if os.WriteFile(tmp, []byte(fmt.Sprintf("%s %f\n", pid, mb)), 0o644) == nil {
			os.Rename(tmp, *rss)
		}
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			write()
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	err := manager.RunShard(manager.ShardConfig{ControlAddr: *control, Name: *name})
	close(stop)
	<-done
	write()
	return err
}

// checkHashes compares a run's component hashes with the in-process
// reference.
func checkHashes(what string, got, want map[string]uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d component hashes, reference has %d", what, len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			return fmt.Errorf("%s: component %s is not bit-identical to the in-process reference", what, k)
		}
	}
	return nil
}

// partRun is the cut built in-process: the root partition and the shard
// partitions joined over real loopback TCP.
type partRun struct {
	root   *manager.Partition
	shards []*manager.Partition
	units  [][]int
	build  time.Duration
	conns  []net.Conn
	once   sync.Once
}

func (p *partRun) all() []*manager.Partition {
	return append([]*manager.Partition{p.root}, p.shards...)
}

// close closes every bridge and connection, unblocking any exchange in
// flight; it is safe to call from several partitions' goroutines.
func (p *partRun) close() {
	p.once.Do(func() {
		for _, part := range p.all() {
			part.CloseBridges()
		}
		for _, c := range p.conns {
			c.Close()
		}
	})
}

// buildPartitions builds the root and shard partitions, packing units
// onto at most procs shards as a distributed run does, and joins every
// bridge pair over its own loopback TCP connection.
func (w *distWorkload) buildPartitions(spec manager.ClusterSpec) (*partRun, error) {
	t0 := time.Now()
	root, err := manager.BuildPartition(spec, nil, 30*time.Second)
	if err != nil {
		return nil, err
	}
	pr := &partRun{root: root}
	procs := w.procs
	if procs > len(root.Units) {
		procs = len(root.Units)
	}
	pr.units = make([][]int, procs)
	for i, u := range root.Units {
		pr.units[i%procs] = append(pr.units[i%procs], u)
	}
	for _, units := range pr.units {
		sh, err := manager.BuildPartition(spec, units, 30*time.Second)
		if err != nil {
			return nil, err
		}
		pr.shards = append(pr.shards, sh)
	}
	pr.build = time.Since(t0)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	for i, units := range pr.units {
		for _, u := range units {
			a, b, err := tcpPair(ln)
			if err != nil {
				pr.close()
				return nil, err
			}
			pr.conns = append(pr.conns, a, b)
			if err := root.AttachBridge(u, a, 0); err != nil {
				pr.close()
				return nil, err
			}
			if err := pr.shards[i].AttachBridge(u, b, 0); err != nil {
				pr.close()
				return nil, err
			}
		}
	}
	return pr, nil
}

// tcpPair returns both ends of one loopback TCP connection.
func tcpPair(ln net.Listener) (net.Conn, net.Conn, error) {
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	acc := <-ch
	if err != nil {
		if acc.c != nil {
			acc.c.Close()
		}
		return nil, nil, err
	}
	if acc.err != nil {
		a.Close()
		return nil, nil, acc.err
	}
	return a, acc.c, nil
}

// partitionLayers maps a partition's endpoints to layers and names its
// eager endpoints (the bridges).
func partitionLayers(p *manager.Partition) (layers map[string]string, eager map[string]bool) {
	layers, eager = make(map[string]string), make(map[string]bool)
	for _, n := range p.Servers {
		layers[n.Name()] = layerSoftstack
	}
	for _, s := range p.Switches {
		layers[s.Name()] = layerSwitch
	}
	for _, b := range p.Bridges {
		layers[b.Name()] = layerTransport
		eager[b.Name()] = true
	}
	return layers, eager
}

// partResult is one in-process partitioned run to a horizon.
type partResult struct {
	wall    time.Duration
	windows []float64 // root-side wall time of every window, in µs
	spans   []*spanInjector
}

// run drives every partition to the horizon in its own goroutine, one
// RunSlice(Step) per window, timing the root's windows.
func (p *partRun) run(horizon uint64, traced bool) (*partResult, error) {
	parts := p.all()
	res := &partResult{}
	if traced {
		for _, part := range parts {
			layers, eager := partitionLayers(part)
			inj := newSpanInjector(layers, eager, true)
			part.Runner.SetInjector(inj)
			res.spans = append(res.spans, inj)
		}
	}
	step := p.root.Step
	n := int(horizon / uint64(step))
	res.windows = make([]float64, 0, n)
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, part := range parts {
		wg.Add(1)
		go func(i int, part *manager.Partition) {
			defer wg.Done()
			for k := 0; k < n; k++ {
				t := time.Now()
				if err := part.RunSlice(step); err != nil {
					errs[i] = err
					// Unblock the peers waiting on this partition's bridges.
					p.close()
					return
				}
				if i == 0 {
					res.windows = append(res.windows, float64(time.Since(t))/1e3)
				}
			}
		}(i, part)
	}
	wg.Wait()
	res.wall = time.Since(t0)
	for _, part := range parts {
		part.Runner.SetInjector(nil)
	}
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("partitioned run: %w", err)
		}
	}
	return res, nil
}

// hashes merges the component hashes of every partition.
func (p *partRun) hashes() (map[string]uint64, error) {
	var maps []map[string]uint64
	for _, part := range p.shards {
		h, err := part.UnitHashes()
		if err != nil {
			return nil, err
		}
		maps = append(maps, h)
	}
	h, err := p.root.UnitHashes()
	if err != nil {
		return nil, err
	}
	return manager.MergeHashes(append(maps, h)...)
}

// checkpoint saves every unit of the cut (the state a distributed run
// persists per unit), restores each into freshly built partitions and
// checks that the restored cut hashes the same. Building the partitions is
// not timed: set-up time already covers construction.
func (w *distWorkload) checkpoint(spec manager.ClusterSpec, p *partRun) (ckptResult, error) {
	var res ckptResult
	root, err := manager.BuildPartition(spec, nil, 30*time.Second)
	if err != nil {
		return res, err
	}
	restored := &partRun{root: root}
	for _, u := range p.units {
		sh, err := manager.BuildPartition(spec, u, 30*time.Second)
		if err != nil {
			return res, err
		}
		restored.shards = append(restored.shards, sh)
	}
	type saved struct {
		part  *manager.Partition
		unit  int
		bytes []byte
	}
	var units []saved
	targets := restored.all()
	t0 := time.Now()
	for i, part := range p.all() {
		ids := []int{manager.RootUnit}
		if i > 0 {
			ids = p.units[i-1]
		}
		for _, u := range ids {
			var buf bytes.Buffer
			if err := part.SaveUnit(&buf, u); err != nil {
				return res, fmt.Errorf("save unit %s: %w", manager.UnitName(u), err)
			}
			units = append(units, saved{targets[i], u, buf.Bytes()})
			res.bytes += buf.Len()
		}
	}
	t1 := time.Now()
	for _, s := range units {
		cycle, err := s.part.RestoreUnit(s.bytes, s.unit)
		if err != nil {
			return res, fmt.Errorf("restore unit %s: %w", manager.UnitName(s.unit), err)
		}
		if err := s.part.Runner.SetCycle(clock.Cycles(cycle)); err != nil {
			return res, err
		}
	}
	res.save, res.restore = t1.Sub(t0), time.Since(t1)
	got, err := restored.hashes()
	if err != nil {
		return res, err
	}
	want, err := p.hashes()
	if err != nil {
		return res, err
	}
	return res, checkHashes("restored cut", got, want)
}

// checkpointSample builds and runs the cut in-process, checks it against
// the reference, and returns the mean time of ckptBatch back-to-back
// checkpoints of it, in milliseconds.
func (w *distWorkload) checkpointSample(r *report, spec manager.ClusterSpec, ref map[string]uint64) (float64, error) {
	pr, err := w.buildPartitions(spec)
	if err != nil {
		return 0, err
	}
	defer pr.close()
	if _, err := pr.run(w.cfg.cut, false); err != nil {
		return 0, err
	}
	got, err := pr.hashes()
	if err == nil {
		err = checkHashes("in-process cut", got, ref)
	}
	r.op(err)
	coldHeap()
	var total time.Duration
	for k := 0; k < w.cfg.ckptBatch; k++ {
		ck, err := w.checkpoint(spec, pr)
		r.op(err)
		total += ck.save + ck.restore
	}
	return float64(total) / float64(w.cfg.ckptBatch) / 1e6, nil
}

// loopbackRTTMicros measures the host's loopback TCP round trip with
// 16-byte messages: the floor under any window that exchanges batches.
func loopbackRTTMicros() (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	a, b, err := tcpPair(ln)
	if err != nil {
		return 0, err
	}
	defer a.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer b.Close()
		buf := make([]byte, 16)
		for {
			if _, err := io.ReadFull(b, buf); err != nil {
				return
			}
			if _, err := b.Write(buf); err != nil {
				return
			}
		}
	}()
	buf := make([]byte, 16)
	var rtts []float64
	for i := 0; i < 2200; i++ {
		t := time.Now()
		if _, err := a.Write(buf); err != nil {
			return 0, err
		}
		if _, err := io.ReadFull(a, buf); err != nil {
			return 0, err
		}
		if i >= 200 {
			rtts = append(rtts, float64(time.Since(t))/1e3)
		}
	}
	a.Close()
	<-done
	return median(rtts), nil
}

// probe runs the identity probes and returns how many were not
// bit-identical to the in-process reference. Each outcome is printed.
func (w *distWorkload) probe(o options) (mismatches int, err error) {
	for _, p := range w.cfg.probes {
		spec, err := w.spec(o.seed, p.gbps, p.startAt, w.cfg.probeHorizon)
		if err != nil {
			return 0, err
		}
		ref, err := manager.ReferenceHashes(spec, w.cfg.probeHorizon)
		if err != nil {
			return 0, err
		}
		run, err := w.runDistributed(o.dir, spec, w.cfg.probeHorizon)
		if err != nil {
			return 0, err
		}
		diff := checkHashes(p.name+" probe", run.report.Hashes, ref)
		if diff != nil {
			mismatches++
		}
		fmt.Printf("dist-stream: %s probe (%g Gbps from cycle %d, %d nodes, %d procs, horizon %d): bit-identical=%v\n",
			p.name, p.gbps, p.startAt, w.cfg.nodes, w.procs, w.cfg.probeHorizon, diff == nil)
	}
	return mismatches, nil
}

func (w *distWorkload) measure(o options, r *report) error {
	mismatches, err := w.probe(o)
	if err != nil {
		return err
	}
	spec := func(h uint64) (manager.ClusterSpec, map[string]uint64, time.Duration, error) {
		sp, err := w.spec(o.seed, w.cfg.gbps, w.cfg.startAt, h)
		if err != nil {
			return sp, nil, 0, err
		}
		t0 := time.Now()
		ref, err := manager.ReferenceHashes(sp, h)
		return sp, ref, time.Since(t0), err
	}
	cutSpec, refCut, refWall, err := spec(w.cfg.cut)
	if err != nil {
		return err
	}
	if o.trace {
		return w.measureTraced(o, r, cutSpec, refCut, refWall, mismatches)
	}

	// Set-up and steady rate from the wall time at two horizons.
	shortSpec, refShort, _, err := spec(w.cfg.short)
	if err != nil {
		return err
	}
	longSpec, refLong, _, err := spec(w.cfg.long)
	if err != nil {
		return err
	}
	var rates, setups, peaks []float64
	var measured, steady time.Duration
	start := time.Now()
	for n := 0; n < w.cfg.minPairs || (measured < o.budget() && time.Since(start) < 3*o.budget()); n++ {
		var walls []time.Duration
		for _, h := range []struct {
			spec    manager.ClusterSpec
			ref     map[string]uint64
			horizon uint64
		}{{shortSpec, refShort, w.cfg.short}, {longSpec, refLong, w.cfg.long}} {
			run, err := w.runDistributed(o.dir, h.spec, h.horizon)
			if err == nil {
				err = checkHashes(fmt.Sprintf("distributed run to cycle %d", h.horizon), run.report.Hashes, h.ref)
				walls = append(walls, run.wall)
				measured += run.wall
				peaks = append(peaks, run.peakMB)
			}
			r.op(err)
		}
		if len(walls) != 2 {
			continue
		}
		steady += walls[1] - walls[0]
		nsPerCycle := float64(walls[1]-walls[0]) / float64(w.cfg.long-w.cfg.short)
		rates = append(rates, 1e3/nsPerCycle)
		setups = append(setups, (float64(walls[0])-nsPerCycle*float64(w.cfg.short))/1e9)
	}

	// The checkpoint a distributed run persists per unit, taken in-process.
	// Each sample checkpoints a freshly built and run cut, so no single
	// memory placement of the cut decides the run's figure.
	var ckpts []float64
	for i := 0; i < w.cfg.ckpts; i++ {
		ms, err := w.checkpointSample(r, cutSpec, refCut)
		if err != nil {
			return err
		}
		ckpts = append(ckpts, ms)
	}

	// The steady rate over every pair: the cycles the long runs simulate
	// beyond the short ones, over the extra wall time they take.
	extra := clock.Cycles(w.cfg.long-w.cfg.short) * clock.Cycles(len(rates))
	r.values["sim_mhz"] = value{v: mhz(extra, steady), unit: "MHz", n: len(rates), spread: spread(rates)}
	r.values["sim_mhz_p10"] = value{v: quantile(rates, 0.1), unit: "MHz", n: len(rates), spread: spread(rates)}
	r.median("setup_s", "s", setups)
	r.median("peak_rss_mb", "MB", peaks)
	r.median("ckpt_ms", "ms", ckpts)
	return nil
}

// measureTraced builds the cut in-process and times it window by window,
// untraced and then traced, with every endpoint tick attributed to a layer.
func (w *distWorkload) measureTraced(o options, r *report, spec manager.ClusterSpec, ref map[string]uint64, refWall time.Duration, mismatches int) error {
	zeroPerLayer(r)
	r.one("manager.probe_mismatch", "count", float64(mismatches))
	rtt, err := loopbackRTTMicros()
	if err != nil {
		return err
	}
	r.one("transport.loopback_rtt_us", "us", rtt)

	// Alternate untraced and traced runs of the cut until the budget is
	// spent: windows are timed on the untraced runs, spans on the traced.
	var windows, builds []float64
	var plainWall time.Duration
	var tot spanTotals
	var tracedRun *partRun
	for n := 0; n == 0 || plainWall+tot.wall < o.budget(); n++ {
		for _, tr := range []bool{false, true} {
			pr, err := w.buildPartitions(spec)
			if err != nil {
				return err
			}
			builds = append(builds, float64(pr.build)/1e6)
			res, err := pr.run(w.cfg.cut, tr)
			if err != nil {
				pr.close()
				return err
			}
			got, err := pr.hashes()
			if err == nil {
				err = checkHashes(fmt.Sprintf("in-process cut (traced=%v)", tr), got, ref)
			}
			r.op(err)
			if !tr {
				pr.close()
				windows = append(windows, res.windows...)
				plainWall += res.wall
				continue
			}
			if tracedRun != nil {
				tracedRun.close()
			}
			for _, inj := range res.spans {
				tot.add(inj)
			}
			tot.wall += res.wall
			tot.workers = len(res.spans)
			tot.rounds += float64(w.cfg.cut / uint64(pr.root.Step))
			tracedRun = pr
		}
	}

	defer tracedRun.close()
	// Work counts are per run of the cut; every run simulates the same.
	runs := tot.rounds / float64(w.cfg.cut/uint64(tracedRun.root.Step))
	var work layerCounters
	for _, part := range tracedRun.all() {
		tot.schedU += len(part.Servers) + len(part.Switches) + len(part.Bridges)
		work = work.plus(netCounters(part.Servers, part.Switches), runs)
	}
	tot.overhead = float64(tot.wall)/float64(plainWall) - 1
	if err := tot.record(r); err != nil {
		return err
	}
	work.record(r, tot.layerNs)
	r.one("fame.parallel_speedup", "x", ratio(float64(refWall)*runs, float64(plainWall)))

	var sent, pre float64
	for _, b := range tracedRun.root.Bridges {
		sent += float64(b.WireBytesSent())
		pre += float64(b.PrecodecBytes())
	}
	r.one("transport.wire_bytes_per_window", "B", ratio(sent*runs, tot.rounds))
	r.one("transport.wire_ratio", "x", ratio(pre, sent))
	p50 := quantile(windows, 0.5)
	r.one("manager.window_us_p50", "us", p50)
	r.one("manager.window_us_p99", "us", quantile(windows, 0.99))
	r.one("manager.window_over_rtt", "x", ratio(p50, rtt))
	r.one("manager.build_ms", "ms", median(builds))

	ck, err := w.checkpoint(spec, tracedRun)
	r.op(err)
	if err == nil {
		r.one("snapshot.save_ms", "ms", float64(ck.save)/1e6)
		r.one("snapshot.restore_ms", "ms", float64(ck.restore)/1e6)
		r.one("snapshot.bytes", "B", float64(ck.bytes))
	}
	return nil
}
