package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/apps"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/softstack"
	"repro/internal/switchmodel"
)

// treeConfig sizes the two workloads that deploy a two-level tree.
type treeConfig struct {
	racks, perRack int
	link           clock.Cycles
	region         clock.Cycles
	regions        int
	// memcached-tree: offered load per client, and the quiet tail before
	// the horizon in which outstanding requests drain, so the cluster is
	// quiescent (checkpointable) when the episode ends.
	qps   float64
	drain clock.Cycles
	// stream-incast: per-server stream rate and frame size.
	gbps       float64
	frameBytes int
}

// memcachedTree is the request/response workload of the paper's Fig. 7: one
// memcached server per ToR, every other node an open-loop Poisson mutilate
// client of a server in another rack, under RunParallel.
func memcachedTree(workers int) *inprocWorkload {
	return memcachedTreeWorkload(treeConfig{racks: 8, perRack: 8, link: 6400, region: 6400 * 3000, regions: 10, qps: 12_000, drain: 6400 * 320}, workers)
}

// streamIncast is the switch saturation workload (§IV-D, Fig. 6): every
// server streams raw Ethernet to a server in another rack, faster than a
// ToR uplink drains, under the sequential Run.
func streamIncast(workers int) *inprocWorkload {
	return streamIncastWorkload(treeConfig{racks: 8, perRack: 8, link: 6400, region: 6400 * 20, regions: 10, gbps: 40, frameBytes: 1024}, workers)
}

// permutations derives the seed's traffic pattern: rackOf maps each rack
// to a different rack (a derangement), slot permutes positions in a rack.
func permutations(m *mixer, racks, perRack int) (rackOf, slot []int) {
	rackOf = make([]int, racks)
	for {
		for i := range rackOf {
			rackOf[i] = i
		}
		for i := racks - 1; i > 0; i-- {
			j := int(m.next() % uint64(i+1))
			rackOf[i], rackOf[j] = rackOf[j], rackOf[i]
		}
		ok := true
		for i, r := range rackOf {
			ok = ok && r != i
		}
		if ok {
			break
		}
	}
	slot = make([]int, perRack)
	for i := range slot {
		slot[i] = i
	}
	for i := perRack - 1; i > 0; i-- {
		j := int(m.next() % uint64(i+1))
		slot[i], slot[j] = slot[j], slot[i]
	}
	return rackOf, slot
}

// deployTree deploys a fresh racks×perRack tree.
func deployTree(c treeConfig, seed uint64, workers int) (*core.Cluster, error) {
	t, err := core.Tree([]int{c.racks, c.perRack}, core.QuadCore)
	if err != nil {
		return nil, err
	}
	return core.Deploy(t, core.DeployConfig{LinkLatency: c.link, Seed: seed, Workers: workers})
}

// netCounters reads the frame and switch counters of a set of nodes and
// switches.
func netCounters(servers []*softstack.Node, switches []*switchmodel.Switch) layerCounters {
	var c layerCounters
	for _, n := range servers {
		st := n.Stats()
		c.framesSent += float64(st.FramesSent)
		c.framesRecv += float64(st.FramesRecv)
	}
	for _, s := range switches {
		c = c.plus(switchCounters(s), 1)
	}
	return c
}

// switchCounters reads one switch's forwarding and drop counters.
func switchCounters(s *switchmodel.Switch) layerCounters {
	st := s.Stats()
	return layerCounters{
		flitsOut:   float64(st.FlitsOut),
		packetsOut: float64(st.PacketsOut),
		drops:      float64(st.DropsBufFull + st.DropsStale + st.DropsUnroutable),
	}
}

// clusterInstance wraps a deployed cluster: whole-cluster checkpoints and
// the layer map come from the cluster's own handles. rebuild deploys a
// fresh copy with the same applications installed, the target a
// checkpoint is restored into.
func clusterInstance(cl *core.Cluster, rebuild func() (*core.Cluster, error), parallel bool) *instance {
	layers := make(map[string]string)
	for _, n := range cl.Servers {
		layers[n.Name()] = layerSoftstack
	}
	for _, s := range cl.Switches {
		layers[s.Name()] = layerSwitch
	}
	return &instance{
		runner:   cl.Runner,
		parallel: parallel,
		layers:   layers,
		save:     cl.Checkpoint,
		fresh: func() (func([]byte) error, func(io.Writer) error, error) {
			fresh, err := rebuild()
			if err != nil {
				return nil, nil, err
			}
			load := func(data []byte) error { return fresh.RestoreState(bytes.NewReader(data)) }
			return load, fresh.Checkpoint, nil
		},
		counters: func() layerCounters { return netCounters(cl.Servers, cl.Switches) },
	}
}

// memcachedApps is one memcached-tree deployment with its applications.
type memcachedApps struct {
	cl      *core.Cluster
	servers []*apps.MemcachedServer
	clients []*apps.Mutilate
}

// deployMemcached deploys the tree and installs the servers, and the
// clients when end > 0. A checkpoint is restored into a deployment without
// clients: their pending request schedule would make it non-quiescent.
func deployMemcached(c treeConfig, seed uint64, workers int, end clock.Cycles) (*memcachedApps, error) {
	cl, err := deployTree(c, seed, workers)
	if err != nil {
		return nil, err
	}
	d := &memcachedApps{cl: cl}
	m := mixer(seed)
	rackOf, slot := permutations(&m, c.racks, c.perRack)
	rack := func(r int) []*softstack.Node { return cl.Servers[r*c.perRack : (r+1)*c.perRack] }
	server := func(r int) *softstack.Node { return rack(r)[slot[r%c.perRack]] }
	for r := 0; r < c.racks; r++ {
		d.servers = append(d.servers, apps.NewMemcachedServer(server(r), apps.MemcachedConfig{Threads: 4}))
	}
	for r := 0; r < c.racks && end > 0; r++ {
		for _, n := range rack(r) {
			if n == server(r) {
				continue
			}
			start := c.link + clock.Cycles(m.next()%uint64(c.link))
			d.clients = append(d.clients, apps.NewMutilate(n, apps.MutilateConfig{
				Server: server(rackOf[r]).IP(), QPS: c.qps, Connections: 4,
				Start: start, Duration: end - start, Seed: m.next(),
			}))
		}
	}
	return d, nil
}

// outcome digests the target-side results: mutilate counts and latency
// distribution, requests served, and every node's and switch's counters.
func (d *memcachedApps) outcome(h io.Writer) {
	put := func(v float64) { binary.Write(h, binary.LittleEndian, math.Float64bits(v)) }
	for _, cli := range d.clients {
		put(float64(cli.Sent))
		put(float64(cli.Received))
		put(float64(cli.Latencies.N()))
		for _, p := range []float64{0, 50, 95, 100} {
			put(cli.Latencies.Percentile(p))
		}
		put(cli.Latencies.Mean())
	}
	for _, s := range d.servers {
		put(float64(s.Served))
	}
	for _, n := range d.cl.Servers {
		fmt.Fprintf(h, "%+v", n.Stats())
	}
	for _, s := range d.cl.Switches {
		fmt.Fprintf(h, "%+v", s.Stats())
	}
}

func memcachedTreeWorkload(c treeConfig, workers int) *inprocWorkload {
	w := &inprocWorkload{name: "memcached-tree", parallel: true, step: c.link, region: c.region, regions: c.regions, tail: c.drain, minEpisodes: 3}
	w.build = func(seed uint64, parallel bool) (*instance, error) {
		// Clients send until the timed regions end; the untimed tail lets
		// outstanding requests drain.
		end := w.horizon() - c.drain
		d, err := deployMemcached(c, seed, workers, end)
		if err != nil {
			return nil, err
		}
		inst := clusterInstance(d.cl, func() (*core.Cluster, error) {
			fresh, err := deployMemcached(c, seed, workers, 0)
			if err != nil {
				return nil, err
			}
			return fresh.cl, nil
		}, parallel)
		inst.outcome = d.outcome
		return inst, nil
	}
	return w
}

func streamIncastWorkload(c treeConfig, workers int) *inprocWorkload {
	deploy := func(seed uint64) (*core.Cluster, error) {
		cl, err := deployTree(c, seed, workers)
		if err != nil {
			return nil, err
		}
		m := mixer(seed)
		rackOf, slot := permutations(&m, c.racks, c.perRack)
		for r := 0; r < c.racks; r++ {
			for i := 0; i < c.perRack; i++ {
				src := cl.Servers[r*c.perRack+i]
				dst := cl.Servers[rackOf[r]*c.perRack+slot[i]]
				start := clock.Cycles(m.next() % uint64(c.link))
				src.StartRawStream(start, dst.MAC(), c.frameBytes, c.gbps, 0)
			}
		}
		return cl, nil
	}
	return &inprocWorkload{
		name: "stream-incast", parallel: false, step: c.link, region: c.region, regions: c.regions, minEpisodes: 3,
		build: func(seed uint64, parallel bool) (*instance, error) {
			cl, err := deploy(seed)
			if err != nil {
				return nil, err
			}
			return clusterInstance(cl, func() (*core.Cluster, error) { return deploy(seed) }, parallel), nil
		},
	}
}
