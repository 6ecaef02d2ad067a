package manager

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/ethernet"
	"repro/internal/fame"
	"repro/internal/obs"
	"repro/internal/softstack"
	"repro/internal/transport"
)

// TestClusterMetricsEndToEnd deploys a small topology with every layer
// instrumented against one registry and checks the layers agree with
// each other after a supervised run: the manager's heartbeat gauge, the
// runner's cycle gauge, and the report must all name the same final
// cycle, and the switch mirror must have seen the ping traffic.
func TestClusterMetricsEndToEnd(t *testing.T) {
	topo := NewSwitchNode("tor0")
	for i := 0; i < 2; i++ {
		topo.AddDownlinks(NewServerNode(fmt.Sprintf("s%d", i), QuadCore))
	}
	c, err := Deploy(topo, DeployConfig{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry("cluster")
	c.EnableMetrics(reg)
	s := c.Supervise()
	s.EnableMetrics(reg)

	c.NodeByName("s0").Ping(0, c.NodeByName("s1").IP(), 3, 40*c.LinkLatency, nil)
	rep, err := s.RunTo(20 * c.LinkLatency)
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	want := int64(rep.Cycle)
	if got := snap.Gauges["manager_local_cycle"]; got != want {
		t.Errorf("manager_local_cycle = %d, want %d", got, want)
	}
	if got := snap.Gauges["fame_cycle"]; got != want {
		t.Errorf("fame_cycle = %d, want %d", got, want)
	}
	for _, name := range []string{"s0", "s1"} {
		if got := snap.Gauges[obs.Label("manager_node_up", "node", name)]; got != 1 {
			t.Errorf("manager_node_up{node=%s} = %d, want 1", name, got)
		}
		if got := snap.Gauges[obs.Label("manager_node_last_cycle", "node", name)]; got != want {
			t.Errorf("manager_node_last_cycle{node=%s} = %d, want %d", name, got, want)
		}
	}
	if got := snap.Counters["manager_slices_total"]; got == 0 {
		t.Error("manager_slices_total = 0 after a supervised run")
	}
	if got := snap.Counters["manager_checks_total"]; got == 0 {
		t.Error("manager_checks_total = 0 after a supervised run")
	}
	if got := snap.Counters[obs.Label("switch_flits_in_total", "switch", "tor0")]; got == 0 {
		t.Error("switch mirror saw no traffic despite an in-flight ping")
	}
	if got := snap.Counters["fame_rounds_total"]; got != uint64(rep.Cycle/c.Runner.Step()) {
		t.Errorf("fame_rounds_total = %d, want %d", got, uint64(rep.Cycle/c.Runner.Step()))
	}
}

// TestSupervisorMetricsDeadPeer reruns the dead-peer scenario with
// metrics on: when the remote host dies, the per-node liveness gauges
// must flip, peers_down must rise, and the dead node's last-cycle gauge
// must freeze at the last confirmed token exchange.
func TestSupervisorMetricsDeadPeer(t *testing.T) {
	const linkLat = 3200
	const horizon = 50 * linkLat
	arp := map[ethernet.IP]ethernet.MAC{0x0a000001: 0x1, 0x0a000002: 0x2}
	c1, c2 := net.Pipe()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b := softstack.NewNode(softstack.Config{Name: "b", MAC: 0x2, IP: 0x0a000002, StaticARP: arp})
		br := transport.NewBridge("bridge2", c2)
		r := fame.NewRunner()
		r.Add(b)
		r.Add(br)
		if err := r.Connect(b, 0, br, 0, linkLat); err != nil {
			panic(err)
		}
		for i := 0; i < 3; i++ {
			if err := r.Run(linkLat); err != nil {
				panic(err)
			}
		}
		c2.Close()
	}()

	a := softstack.NewNode(softstack.Config{Name: "a", MAC: 0x1, IP: 0x0a000001, StaticARP: arp})
	br := transport.NewBridgeConfig("to-host2", c1, transport.BridgeConfig{
		ReadTimeout:  100 * time.Millisecond,
		WriteTimeout: 100 * time.Millisecond,
	})
	r := fame.NewRunner()
	r.Add(a)
	r.Add(br)
	if err := r.Connect(a, 0, br, 0, linkLat); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry("deadpeer")
	s := NewSupervisor(r)
	s.AddLocal("a")
	s.EnableMetrics(reg)
	s.Watch("host2", br, "b") // after EnableMetrics: Watch must instrument late peers too
	rep, err := s.RunTo(horizon)
	wg.Wait()
	if err != nil {
		t.Fatalf("supervised run failed: %v", err)
	}
	if !rep.Partial {
		t.Fatal("peer death not detected")
	}

	snap := reg.Snapshot()
	if got := snap.Gauges["manager_peers_watched"]; got != 1 {
		t.Errorf("manager_peers_watched = %d, want 1", got)
	}
	if got := snap.Gauges["manager_peers_down"]; got != 1 {
		t.Errorf("manager_peers_down = %d, want 1", got)
	}
	if got := snap.Gauges[obs.Label("manager_node_up", "node", "a")]; got != 1 {
		t.Errorf("local node marked down: manager_node_up{node=a} = %d", got)
	}
	if got := snap.Gauges[obs.Label("manager_node_up", "node", "b")]; got != 0 {
		t.Errorf("dead node still up: manager_node_up{node=b} = %d", got)
	}
	if got := snap.Gauges[obs.Label("manager_node_last_cycle", "node", "b")]; got != 3*linkLat {
		t.Errorf("manager_node_last_cycle{node=b} = %d, want %d", got, 3*linkLat)
	}
	if got := snap.Gauges["manager_local_cycle"]; got != horizon {
		t.Errorf("manager_local_cycle = %d, want %d", got, horizon)
	}
	// Watch() wired the bridge into the same registry.
	if got := snap.Counters[obs.Label("transport_errors_total", "bridge", "to-host2")]; got != 1 {
		t.Errorf("transport_errors_total = %d, want 1", got)
	}
	if got := snap.Gauges[obs.Label("transport_degraded", "bridge", "to-host2")]; got != 1 {
		t.Errorf("transport_degraded = %d, want 1", got)
	}
}
