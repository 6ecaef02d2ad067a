package manager

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/ethernet"
	"repro/internal/fame"
	"repro/internal/softstack"
	"repro/internal/transport"
)

// TestSupervisorDeadPeer is the distributed-robustness acceptance test: a
// two-runner simulation where the peer host dies mid-run. The supervisor
// must detect the dead bridge (read deadline), degrade it,
// keep the surviving partition simulating to the horizon, and report
// per-node status with the remote node marked down.
func TestSupervisorDeadPeer(t *testing.T) {
	const linkLat = 3200
	const horizon = 200 * linkLat
	arp := map[ethernet.IP]ethernet.MAC{0x0a000001: 0x1, 0x0a000002: 0x2}
	c1, c2 := net.Pipe()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Host 2 simulates node b... for three steps, then the host dies.
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

	// Host 1: node a behind a hardened bridge. The read deadline turns the
	// dead peer into an error.
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
	// Traffic toward the doomed peer, so the failure happens mid-workload.
	a.Ping(0, 0x0a000002, 50, 10*linkLat, func([]softstack.PingResult) {})

	s := NewSupervisor(r)
	s.AddLocal("a")
	s.Watch("host2", br, "b")
	rep, err := s.RunTo(horizon)
	wg.Wait()
	if err != nil {
		t.Fatalf("supervised run failed: %v", err)
	}
	if rep.Cycle != horizon {
		t.Errorf("surviving partition stopped at cycle %d, want %d", rep.Cycle, horizon)
	}
	if !rep.Partial {
		t.Error("report does not flag partial results after a peer death")
	}
	if !br.Degraded() {
		t.Error("dead peer's bridge was not degraded")
	}
	byName := map[string]NodeStatus{}
	for _, ns := range rep.Nodes {
		byName[ns.Name] = ns
	}
	if ns := byName["a"]; !ns.Up || ns.LastCycle != horizon {
		t.Errorf("local node status = %+v, want up at cycle %d", ns, horizon)
	}
	ns, ok := byName["b"]
	if !ok {
		t.Fatal("remote node missing from report")
	}
	if ns.Up {
		t.Error("remote node behind a dead bridge reported as up")
	}
	if ns.Err == nil {
		t.Error("remote node status carries no failure cause")
	}
	// Host 2 completed exactly 3 token exchanges before dying, so that is
	// the last cycle the report can vouch for.
	if want := clock.Cycles(3 * linkLat); ns.LastCycle != want {
		t.Errorf("remote LastCycle = %d, want %d", ns.LastCycle, want)
	}
	if text := rep.String(); !strings.Contains(text, "DOWN") || !strings.Contains(text, "partial=true") {
		t.Errorf("report rendering missing status markers:\n%s", text)
	}
}

// TestSupervisorAllHealthy: with no peers (or healthy ones), RunTo is just
// a sliced Run and reports everything up.
func TestSupervisorAllHealthy(t *testing.T) {
	topo := NewSwitchNode("tor0")
	for i := 0; i < 2; i++ {
		topo.AddDownlinks(NewServerNode(fmt.Sprintf("s%d", i), QuadCore))
	}
	c, err := Deploy(topo, DeployConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Supervise()
	rep, err := s.RunTo(20 * c.LinkLatency)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Error("healthy run flagged partial")
	}
	if len(rep.Nodes) != 2 {
		t.Fatalf("report has %d nodes, want 2", len(rep.Nodes))
	}
	for _, ns := range rep.Nodes {
		if !ns.Up || ns.LastCycle != rep.Cycle {
			t.Errorf("healthy node status %+v", ns)
		}
	}
}
