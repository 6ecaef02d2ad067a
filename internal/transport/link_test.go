package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/token"
)

// writeCountingConn counts the Write calls that reach the connection.
type writeCountingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *writeCountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// linkSide is one process's end of a multi-unit token link: its bridges
// in slot order and the link they share.
type linkSide struct {
	bridges []*Bridge
	link    *Link
}

func newLinkSide(prefix string, units int, conn io.ReadWriter) *linkSide {
	s := &linkSide{}
	for u := 0; u < units; u++ {
		s.bridges = append(s.bridges, NewBridgeConfig(fmt.Sprintf("%s%d", prefix, u), nil, BridgeConfig{}))
	}
	s.link = Attach(conn, 0, s.bridges...)
	return s
}

// fill builds unit u's batch for window w: every slot occupied when
// dense (alternating Last flags, so every slot is its own run), one
// token otherwise. The data word names (side, unit, window, offset).
func fill(b *token.Batch, n int, side, u, w int, dense bool) {
	b.Reset(n)
	word := func(off int) uint64 {
		return uint64(side)<<60 | uint64(u)<<48 | uint64(w)<<24 | uint64(off)
	}
	if !dense {
		b.Put(w%n, token.Token{Data: word(w % n), Valid: true})
		return
	}
	for off := 0; off < n; off++ {
		b.Put(off, token.Token{Data: word(off), Valid: true, Last: off%2 == 0})
	}
}

// check verifies that out is exactly the batch the peer filled.
func check(out *token.Batch, n int, side, u, w int, dense bool) error {
	want := token.NewBatch(n)
	fill(want, n, side, u, w, dense)
	if out.N != want.N || len(out.Slots) != len(want.Slots) {
		return fmt.Errorf("unit %d window %d: got %d slots over %d cycles, want %d over %d", u, w, len(out.Slots), out.N, len(want.Slots), want.N)
	}
	for i := range want.Slots {
		if out.Slots[i] != want.Slots[i] {
			return fmt.Errorf("unit %d window %d slot %d: got %+v, want %+v", u, w, i, out.Slots[i], want.Slots[i])
		}
	}
	return nil
}

// drive runs windows exchanges on one side, the way a runner drives its
// bridges, and checks every batch received against what the peer sent.
// Modes: "eager" deposits every bridge in a prepass before any tick (the
// sequential scheduler); "lazy" never calls StartBatch, so each bridge
// deposits and reads in turn; "workers" drives every bridge from its own
// goroutine (the parallel scheduler's worst case).
func (s *linkSide) drive(mode string, side, windows, n int, dense bool) error {
	units := len(s.bridges)
	run := func(u, w int, in, out []*token.Batch) error {
		br := s.bridges[u]
		br.TickBatch(n, in, out)
		if err := br.Err(); err != nil {
			return err
		}
		return check(out[0], n, 1-side, u, w, dense)
	}
	if mode == "workers" {
		errs := make(chan error, units)
		for u := 0; u < units; u++ {
			go func(u int) {
				in := []*token.Batch{token.NewBatch(n)}
				out := []*token.Batch{token.NewBatch(n)}
				for w := 0; w < windows; w++ {
					fill(in[0], n, side, u, w, dense)
					s.bridges[u].StartBatch(n, in)
					if err := run(u, w, in, out); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}(u)
		}
		var first error
		for u := 0; u < units; u++ {
			if err := <-errs; err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	ins := make([][]*token.Batch, units)
	outs := make([][]*token.Batch, units)
	for u := range ins {
		ins[u] = []*token.Batch{token.NewBatch(n)}
		outs[u] = []*token.Batch{token.NewBatch(n)}
	}
	for w := 0; w < windows; w++ {
		for u := 0; u < units; u++ {
			fill(ins[u][0], n, side, u, w, dense)
			if mode == "eager" {
				s.bridges[u].StartBatch(n, ins[u])
			}
		}
		for u := 0; u < units; u++ {
			if err := run(u, w, ins[u], outs[u]); err != nil {
				return err
			}
		}
	}
	return nil
}

// exchangeSides drives both sides concurrently and returns the first
// failure, or an error if the pair is still running after timeout.
func exchangeSides(a, b *linkSide, mode string, windows, n int, dense bool, timeout time.Duration) error {
	errs := make(chan error, 2)
	go func() { errs <- a.drive(mode, 0, windows, n, dense) }()
	go func() { errs <- b.drive(mode, 1, windows, n, dense) }()
	deadline := time.After(timeout)
	var first error
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil && first == nil {
				first = err
			}
		case <-deadline:
			a.link.Close()
			b.link.Close()
			return fmt.Errorf("%s exchange still running after %v: deadlock", mode, timeout)
		}
	}
	return first
}

// tcpConnPair returns both ends of one loopback TCP connection.
func tcpConnPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	acc := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		acc <- c
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b := <-acc
	if b == nil {
		t.Fatal("accept failed")
	}
	return a, b
}

// TestLinkOneWritePerWindow is the coalescing gate: with four units on
// one link and the sequential scheduler's eager prepass, every window
// costs exactly one socket write, which carries all four frames.
func TestLinkOneWritePerWindow(t *testing.T) {
	const units, windows, n = 4, 32, 64
	c1, c2 := net.Pipe()
	counted := &writeCountingConn{Conn: c1}
	a := newLinkSide("a", units, counted)
	b := newLinkSide("b", units, c2)
	reg := obs.NewRegistry("link")
	a.link.EnableMetrics(reg)
	defer a.link.Close()
	defer b.link.Close()

	if err := exchangeSides(a, b, "eager", windows, n, false, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := counted.writes.Load(); got != windows {
		t.Errorf("%d socket writes over %d windows, want exactly one per window", got, windows)
	}
	// The exported counters agree: frames per write is the unit count.
	s := reg.Snapshot()
	writes := s.Counters[obs.Label("transport_link_writes_total", "link", a.link.Name())]
	frames := s.Counters[obs.Label("transport_link_frames_total", "link", a.link.Name())]
	if writes != windows || frames != units*windows {
		t.Errorf("link metrics: %d frames over %d writes, want %d over %d", frames, writes, units*windows, windows)
	}
	if got := s.Counters[obs.Label("transport_bytes_sent_total", "link", a.link.Name())]; got != a.link.WireBytesSent() {
		t.Errorf("bytes_sent metric %d, WireBytesSent %d", got, a.link.WireBytesSent())
	}
}

// TestLinkMaxDensityNoDeadlock fills every slot of every unit's window
// (alternating Last flags, so each slot is its own run and a window is
// far larger than the socket buffers) and drives eight units over one
// link under every scheduling shape. A hard timeout turns a deadlock
// into a failure; every received batch is checked token by token.
func TestLinkMaxDensityNoDeadlock(t *testing.T) {
	const units, windows = 8, 4
	n := 8192
	if testing.Short() {
		n = 1024
	}
	conns := map[string]func(t *testing.T) (net.Conn, net.Conn){
		"pipe": func(*testing.T) (net.Conn, net.Conn) { return net.Pipe() },
		"tcp":  tcpConnPair,
	}
	for _, conn := range []string{"pipe", "tcp"} {
		for _, mode := range []string{"eager", "lazy", "workers"} {
			t.Run(conn+"/"+mode, func(t *testing.T) {
				c1, c2 := conns[conn](t)
				a := newLinkSide("a", units, c1)
				b := newLinkSide("b", units, c2)
				defer a.link.Close()
				defer b.link.Close()
				if err := exchangeSides(a, b, mode, windows, n, true, 60*time.Second); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestLinkSequenceGap: a peer that skips a window is a hard error on
// every bridge of the link, never a silent resynchronisation.
func TestLinkSequenceGap(t *testing.T) {
	const n = 16
	c1, c2 := net.Pipe()
	side := newLinkSide("a", 2, c1)
	defer side.link.Close()
	go func() {
		go io.Copy(io.Discard, c2)
		stream := appendHello(nil, n, 0, 0)
		stream = binary.AppendUvarint(stream, 1) // window 1 where 0 is due
		stream = binary.AppendUvarint(stream, n)
		stream = binary.AppendUvarint(stream, 2)
		stream = appendRuns(stream, token.NewBatch(n))
		stream = appendRuns(stream, token.NewBatch(n))
		c2.Write(stream)
	}()
	in := []*token.Batch{token.NewBatch(n)}
	out := []*token.Batch{token.NewBatch(n)}
	for _, br := range side.bridges {
		br.StartBatch(n, in)
	}
	for _, br := range side.bridges {
		br.TickBatch(n, in, out)
		if err := br.Err(); err == nil {
			t.Fatalf("bridge %s accepted a sequence gap", br.Name())
		}
	}
	if err := side.bridges[0].Err(); !bytes.Contains([]byte(err.Error()), []byte("sequence gap")) {
		t.Errorf("error does not name the gap: %v", err)
	}
}

// fakeConn feeds a fixed byte stream to a link and discards its writes.
type fakeConn struct{ r io.Reader }

func (c *fakeConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *fakeConn) Write(p []byte) (int, error) { return len(p), nil }

// FuzzLinkRead throws arbitrary peer streams at a three-unit link, and
// the same bytes at the token preamble parser. Corrupt input must fail
// the link (or the parse) with an error, never panic or hang; anything
// accepted must be well-formed.
func FuzzLinkRead(f *testing.F) {
	const units, n = 3, 16
	section := func(seq uint64, slots []int) []byte {
		dst := binary.AppendUvarint(nil, seq)
		dst = binary.AppendUvarint(dst, n)
		dst = binary.AppendUvarint(dst, uint64(len(slots)))
		if len(slots) < units {
			for _, k := range slots {
				dst = binary.AppendUvarint(dst, uint64(k))
			}
		}
		for _, k := range slots {
			b := token.NewBatch(n)
			b.Put(k, token.Token{Data: uint64(k), Valid: true, Last: k%2 == 0})
			dst = appendRuns(dst, b)
		}
		return dst
	}
	hello := appendHello(nil, n, 0, 0)
	full := append(append([]byte(nil), hello...), section(0, []int{0, 1, 2})...)
	full = append(full, section(1, []int{0, 1, 2})...)
	f.Add(full)
	split := append(append([]byte(nil), hello...), section(0, []int{1})...)
	split = append(split, section(0, []int{0, 2})...)
	f.Add(split)
	f.Add(full[:len(full)-3])
	f.Add(hello)
	f.Add([]byte{})
	pre, _ := appendPreamble(nil, TokenPreamble{Name: "shard0", Epoch: 3, Units: []int{0, 4, 7}})
	f.Add(pre)
	f.Add(pre[:len(pre)-2])

	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := readPreamble(bytes.NewReader(data)); err == nil {
			if len(p.Units) == 0 || len(p.Units) > maxLinkUnits {
				t.Fatalf("accepted a preamble with %d units", len(p.Units))
			}
		}

		side := newLinkSide("f", units, &fakeConn{r: bytes.NewReader(data)})
		defer side.link.Close()
		in := []*token.Batch{token.NewBatch(n)}
		out := []*token.Batch{token.NewBatch(n)}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for w := 0; w < 4; w++ {
				for _, br := range side.bridges {
					br.StartBatch(n, in)
				}
				for _, br := range side.bridges {
					br.TickBatch(n, in, out)
					if br.Err() == nil && out[0].N != n {
						t.Errorf("accepted a batch over %d cycles, step %d", out[0].N, n)
					}
				}
			}
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("link hung on a finite stream")
		}
	})
}

// TestLinkCloseUnblocksAll: closing a link from another goroutine fails
// every bridge blocked on it, including bridges waiting for a frame
// another bridge is reading.
func TestLinkCloseUnblocksAll(t *testing.T) {
	const n = 16
	c1, c2 := net.Pipe()
	defer c2.Close()
	go io.Copy(io.Discard, c2) // the peer reads but never answers
	side := newLinkSide("a", 3, c1)
	var wg sync.WaitGroup
	for _, br := range side.bridges {
		wg.Add(1)
		go func(br *Bridge) {
			defer wg.Done()
			in := []*token.Batch{token.NewBatch(n)}
			out := []*token.Batch{token.NewBatch(n)}
			br.TickBatch(n, in, out)
		}(br)
	}
	time.Sleep(20 * time.Millisecond)
	side.bridges[1].Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("bridges still blocked 5s after Close")
	}
	for _, br := range side.bridges {
		if !errors.Is(br.Err(), ErrClosed) {
			t.Errorf("bridge %s: err %v, want ErrClosed", br.Name(), br.Err())
		}
	}
}
