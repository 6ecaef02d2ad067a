package transport

import (
	"net"
	"testing"
	"time"

	"repro/internal/token"
)

// A closed bridge must fail fast on the next TickBatch, not touch the
// network.
func TestTickBatchAfterClose(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	br := NewBridge("closed", client)
	br.Close()
	in := []*token.Batch{token.NewBatch(4)}
	out := []*token.Batch{token.NewBatch(4)}
	doneCh := make(chan struct{})
	go func() {
		br.TickBatch(4, in, out)
		close(doneCh)
	}()
	select {
	case <-doneCh:
	case <-time.After(time.Second):
		t.Fatal("TickBatch on a closed bridge blocked")
	}
	if br.Err() == nil {
		t.Fatal("TickBatch on closed bridge did not latch an error")
	}
}

// TestJitterBackoffBounds: the jitter stays within ±20% and is
// deterministic per (name, attempt) — a respawned fleet spreads out, a
// re-run of the same bridge reproduces the same delays.
func TestJitterBackoffBounds(t *testing.T) {
	base := 100 * time.Millisecond
	lo := time.Duration(float64(base) * 0.8)
	hi := time.Duration(float64(base) * 1.2)
	seen := make(map[time.Duration]bool)
	for attempt := 1; attempt <= 32; attempt++ {
		d := jitterBackoff("shard7", attempt, base)
		if d < lo || d >= hi {
			t.Fatalf("attempt %d: jittered delay %v outside [%v, %v)", attempt, d, lo, hi)
		}
		if d != jitterBackoff("shard7", attempt, base) {
			t.Fatalf("attempt %d: jitter not deterministic", attempt)
		}
		seen[d] = true
	}
	if len(seen) < 16 {
		t.Fatalf("only %d distinct delays over 32 attempts; jitter is not spreading", len(seen))
	}
	if jitterBackoff("shard1", 1, base) == jitterBackoff("shard2", 1, base) {
		t.Fatal("different bridges produced identical first delays; fleet would reconnect in lockstep")
	}
}

// Reset must revive a Closed bridge (cleared error and closed flag) so
// the coordinator can re-use the same Bridge value across recovery
// epochs.
func TestResetRevivesClosedBridge(t *testing.T) {
	a1, b1 := net.Pipe()
	defer b1.Close()
	br := NewBridge("revive", a1)
	br.Close()
	a2, b2 := net.Pipe()
	defer a2.Close()
	defer b2.Close()
	br.Reset(a2, 0)
	if br.Err() != nil {
		t.Fatalf("revived bridge still errored: %v", br.Err())
	}
	// And Close works again after the revival.
	br.Close()
	if !br.closed.Load() {
		t.Fatal("second Close did not mark the bridge closed")
	}
}
