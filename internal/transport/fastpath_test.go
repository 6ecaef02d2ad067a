package transport

import (
	"net"
	"sync"
	"testing"

	"repro/internal/token"
)

// TestBridgeSteadyStateZeroAlloc is the fast-path allocation gate: once a
// bridge pair has warmed up (handshake done, scratch buffers at
// capacity), a full exchange — encode, deposit on the link, read the
// peer's frame, wait for the link's writer, commit — must not allocate. AllocsPerRun
// counts process-global mallocs, so the background peer drives the same
// alloc-free path with preallocated batches. Timeouts stay zero: arming a
// net.Pipe deadline allocates a timer, and the production coordinator path
// measures its deadlines against real conns, not this gate.
func TestBridgeSteadyStateZeroAlloc(t *testing.T) {
	c1, c2 := net.Pipe()
	const n = 64

	peer := NewBridge("peer", c2)
	peerIn := []*token.Batch{token.NewBatch(n)}
	peerOut := []*token.Batch{token.NewBatch(n)}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for peer.Err() == nil {
			select {
			case <-stop:
				return
			default:
			}
			peerIn[0].Reset(n)
			peerIn[0].Put(1, token.Token{Data: 42, Valid: true})
			peer.TickBatch(n, peerIn, peerOut)
		}
	}()

	br := NewBridge("local", c1)
	in := []*token.Batch{token.NewBatch(n)}
	out := []*token.Batch{token.NewBatch(n)}
	tick := func() {
		in[0].Reset(n)
		in[0].Put(0, token.Token{Data: 7, Valid: true})
		in[0].Put(1, token.Token{Data: 8, Valid: true})
		in[0].Put(2, token.Token{Data: 9, Valid: true, Last: true})
		br.TickBatch(n, in, out)
	}
	// Warm up until every send, receive and section buffer has reached
	// capacity.
	for i := 0; i < 16; i++ {
		tick()
	}
	if err := br.Err(); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(100, tick)
	close(stop)
	br.Close()
	peer.Close()
	wg.Wait()
	if allocs != 0 {
		t.Errorf("steady-state exchange allocates %.1f times per tick, want 0", allocs)
	}
}

// BenchmarkBridgeExchange measures one steady-state window exchange of a
// bridge pair (StartBatch then TickBatch on each side, as the schedulers
// drive it), over an in-memory pipe and over loopback TCP.
func BenchmarkBridgeExchange(b *testing.B) {
	for _, kind := range []string{"pipe", "tcp"} {
		b.Run(kind, func(b *testing.B) {
			var c1, c2 net.Conn
			if kind == "pipe" {
				c1, c2 = net.Pipe()
			} else {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				acc := make(chan net.Conn, 1)
				go func() {
					c, _ := ln.Accept()
					acc <- c
				}()
				if c1, err = net.Dial("tcp", ln.Addr().String()); err != nil {
					b.Fatal(err)
				}
				c2 = <-acc
				ln.Close()
			}
			const n = 256
			window := func(br *Bridge, in, out []*token.Batch) {
				in[0].Reset(n)
				in[0].Put(3, token.Token{Data: 7, Valid: true, Last: true})
				br.StartBatch(n, in)
				br.TickBatch(n, in, out)
			}
			peer := NewBridge("peer", c2)
			done := make(chan struct{})
			go func() {
				defer close(done)
				in := []*token.Batch{token.NewBatch(n)}
				out := []*token.Batch{token.NewBatch(n)}
				for i := 0; i < b.N+1 && peer.Err() == nil; i++ {
					window(peer, in, out)
				}
			}()
			br := NewBridge("local", c1)
			in := []*token.Batch{token.NewBatch(n)}
			out := []*token.Batch{token.NewBatch(n)}
			window(br, in, out)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				window(br, in, out)
			}
			b.StopTimer()
			<-done
			if err := br.Err(); err != nil {
				b.Fatal(err)
			}
			br.Close()
			peer.Close()
		})
	}
}
