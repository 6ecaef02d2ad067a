package manager

import (
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/snapshot"
	"repro/internal/transport"
)

// TestTokenLinkRejectsForgedUnits drives the coordinator's setup phase
// with forged token preambles. A link whose unit list repeats a unit,
// names one out of range, names one not assigned to the dialing process
// this epoch, omits one of its units, or comes from an unknown process
// must be closed without attaching anything; each process's genuine link
// then attaches all of its units.
func TestTokenLinkRejectsForgedUnits(t *testing.T) {
	spec := distTestSpec(t, 4, false)
	part, err := BuildPartition(spec, nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer part.CloseBridges()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c := &coordinator{
		cfg:        CoordinatorConfig{Lease: 10 * time.Second},
		tokenLn:    ln,
		tokenCh:    make(chan tokenConn, 16),
		evCh:       make(chan shardEvent, 16),
		unitStores: map[int]*snapshot.Store{0: nil, 1: nil, 2: nil, 3: nil},
	}
	c.epoch.Store(1)
	go c.acceptTokens()
	e := &epochRun{epoch: 1, part: part, failed: make(chan struct{}), suspects: map[string]string{}}
	procs := []*shardProc{{name: "shard0", units: []int{0, 1}}, {name: "shard1", units: []int{2, 3}}}
	for _, p := range procs {
		p.lastFrame.Store(time.Now().UnixNano())
		c.evCh <- shardEvent{p: p, typ: msgReady, ready: ReadyMsg{Epoch: 1}}
	}

	dial := func(name string, units ...int) net.Conn {
		t.Helper()
		conn, err := transport.DialToken(ln.Addr().String(), transport.TokenPreamble{Name: name, Epoch: 1, Units: units}, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}
	setup := make(chan *epochFailure, 1)
	go func() { setup <- c.awaitSetup(e, procs, time.Now().Add(20*time.Second)) }()

	// Every forged link is judged (and closed) before either genuine
	// link is dialed.
	forged := map[string]net.Conn{
		"repeated unit":     dial("shard0", 0, 0),
		"unit out of range": dial("shard0", 0, 9),
		"foreign unit":      dial("shard0", 0, 2),
		"missing unit":      dial("shard0", 0),
		"unknown process":   dial("shard7", 0, 1),
	}
	for what, conn := range forged {
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("%s: coordinator did not close the link (read: %v)", what, err)
		}
		conn.Close()
	}
	for u, br := range part.Bridges {
		if br.Link() != nil {
			t.Errorf("unit %d attached by a forged link", u)
		}
	}

	genuine := []net.Conn{dial("shard1", 3, 2), dial("shard0", 0, 1)}
	defer func() {
		for _, c := range genuine {
			c.Close()
		}
	}()
	if f := <-setup; f != nil {
		t.Fatalf("setup failed: %s", f.reason)
	}
	if l0, l1 := part.Bridges[0].Link(), part.Bridges[1].Link(); l0 == nil || l0 != l1 {
		t.Error("shard0's units do not share one link")
	}
	if l2, l3 := part.Bridges[2].Link(), part.Bridges[3].Link(); l2 == nil || l2 != l3 || l2 == part.Bridges[0].Link() {
		t.Error("shard1's units do not share their own link")
	}
	if got := part.Bridges[3].Link().Name(); got != "down/sub3+down/sub2" {
		t.Errorf("shard1's link slots %q, want the preamble order down/sub3+down/sub2", got)
	}
}
