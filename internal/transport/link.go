package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/token"
)

// A Link is one token connection shared by every bridge between the same
// pair of processes. FireSim moves each link-latency batch of tokens
// between hosts in one transfer; a Link does the same across units:
// every bridge deposits its window frame into the link, and the link's
// single writer goroutine puts the window on the socket in one Write.
//
// Stream grammar (after the 32-byte hello, which leads the first write):
//
//	section := seq    uvarint   window sequence number
//	           N      uvarint   cycles per batch (the negotiated step)
//	           count  uvarint   frames in this section, 1..units
//	           frame* count × (slot uvarint, only when count < units;
//	                           v3 run body, codec.go), ascending slots
//
// A steady-state window is one section carrying every unit's frame. A
// window is split across sections only when a bridge had to wait before
// the others deposited.
//
// Bridges on one link may be driven by different scheduler goroutines,
// so shared state sits under mu. Three rules keep the link deadlock-free
// on any connection, net.Pipe included, for any window size: a scheduler
// never writes to the socket (deposits are memcpys the writer drains);
// deposited frames reach the writer no later than when the window is
// complete or any bridge of the link is about to wait, so the peer never
// waits on a frame queued here while we wait on the peer; and whoever
// waits reads, filing the other units' frames into their inboxes, so the
// socket is always drained while anyone here waits on it. An exchange
// commits once the section carrying its own frame has been written: it
// waits for that after its read, and sections are written one Write each
// in queue order, so the wait ends once the peer has read what it needed.
type Link struct {
	name    string
	cfg     BridgeConfig
	conn    io.ReadWriter
	bridges []*Bridge
	seq0    uint64 // window every bridge resumed at
	r       *bufio.Reader
	helloIn bool // the peer's hello was read; owned by the reader role

	mu      sync.Mutex
	cond    sync.Cond // a frame filed, a section written, the reader role freed, or failure
	wake    sync.Cond // the writer has sections to write, or the link failed
	err     error
	step    int  // batch cycles, fixed by the first deposit
	reading bool // a bridge holds the reader role
	waiting int  // bridges blocked on the link, the reader included
	// writerDone is closed when the writer goroutine, started by the
	// first flush, has exited.
	writerDone chan struct{}

	// pend holds queued sections back to back and cuts where each ends;
	// spare and spareCuts are the writer's recycled buffers. queued counts
	// the sections ever queued, written those fully written.
	pend, spare     []byte
	cuts, spareCuts []cut
	queued, written uint64
	free            []*token.Batch // recycled inbox batches

	// Socket truth: every byte the connection accepted or returned.
	wireSent, wireRecv, precodec atomic.Uint64
	metrics                      atomic.Pointer[linkMetrics]
}

// cut marks the end of one queued section in Link.pend.
type cut struct {
	end    int
	seq    uint64
	frames int
}

// maxLinkUnits bounds how many units one link (and one token preamble)
// may carry.
const maxLinkUnits = 1 << 12

// errDetached fails a bridge that was never attached to a connection.
var errDetached = errors.New("no token connection attached")

// errHandshake is a hello that arrived intact but does not match ours.
type errHandshake struct{ error }

// Attach binds bridges (at least one), in slot order, to one fresh token
// connection and resumes each of them at window seq. The peer must
// attach the same units in the same order at the same seq. A bridge's
// previous link is retired first, its connection closed unless it is
// conn itself.
func Attach(conn io.ReadWriter, seq uint64, bridges ...*Bridge) *Link {
	names := make([]string, len(bridges))
	l := &Link{cfg: bridges[0].cfg, conn: conn, bridges: bridges, seq0: seq}
	l.cond.L = &l.mu
	l.wake.L = &l.mu
	l.r = bufio.NewReader(&countingReader{r: conn, l: l})
	for i, b := range bridges {
		names[i] = b.name
		if old := b.link.Load(); old != nil {
			old.retire(old.conn != conn)
		}
		b.reset(l, seq)
	}
	l.name = strings.Join(names, "+")
	for _, b := range bridges {
		if b.reg != nil {
			l.EnableMetrics(b.reg)
			break
		}
	}
	return l
}

// Name identifies the link: its bridges' names joined by "+".
func (l *Link) Name() string { return l.name }

// WireBytesSent and WireBytesRecv report the exact byte totals that
// crossed the link's connection in each direction, hello and section
// framing included; zero on a nil (detached) link.
func (l *Link) WireBytesSent() uint64 {
	if l == nil {
		return 0
	}
	return l.wireSent.Load()
}

func (l *Link) WireBytesRecv() uint64 { return l.wireRecv.Load() }

// PrecodecBytes reports what the link's sent traffic would have cost
// under the v2 codec with one connection per unit: a hello and a
// 16 + 13*slots byte frame per bridge window. It is the baseline of the
// wire-ratio gates; zero on a nil link.
func (l *Link) PrecodecBytes() uint64 {
	if l == nil {
		return 0
	}
	return l.precodec.Load()
}

// Close fails the link and closes its connection, unblocking every
// bridge waiting on it, and returns once the link's writer goroutine has
// exited. Idempotent and safe from any goroutine.
func (l *Link) Close() {
	l.retire(true)
	l.mu.Lock()
	done := l.writerDone
	l.mu.Unlock()
	if done != nil {
		<-done
	}
}

// retire fails the link with ErrClosed so its writer exits, closing the
// connection when closeConn is set.
func (l *Link) retire(closeConn bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		l.err = ErrClosed
	}
	if closeConn {
		l.closeConn()
	}
	l.cond.Broadcast()
	l.wake.Signal()
}

func (l *Link) closeConn() {
	if c, ok := l.conn.(io.Closer); ok {
		c.Close()
	}
}

// failLocked latches err as the link's failure (the first one wins) and
// closes the connection, so the writer and any reader stop within one
// syscall.
func (l *Link) failLocked(err error) {
	if l.err == nil {
		l.err = err
	}
	l.closeConn()
	l.cond.Broadcast()
	l.wake.Signal()
}

// addPrecodec charges v2-priced bytes to the baseline counters.
func (l *Link) addPrecodec(n uint64) {
	l.precodec.Add(n)
	if m := l.metrics.Load(); m != nil {
		m.precodecBytes.Add(n)
	}
}

// deposit encodes b's frame for its next window and queues it. It never
// touches the socket.
func (l *Link) deposit(b *Bridge, n int, in *token.Batch) error {
	// b's previous frame was copied out when its section was queued (an
	// exchange commits only after that), so the buffer is free.
	b.sendBuf = appendRuns(b.sendBuf[:0], in)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.step == 0 {
		l.step = n
		l.addPrecodec(helloSize * uint64(len(l.bridges)))
	} else if n != l.step {
		return fmt.Errorf("local step changed from %d to %d mid-run", l.step, n)
	}
	l.addPrecodec(frameWireBytes(len(in.Slots)))
	b.sendSeq = b.nextSend
	b.queued = true
	b.nextSend++
	complete := true
	for _, o := range l.bridges {
		complete = complete && o.nextSend > b.sendSeq
	}
	if complete || l.waiting > 0 {
		l.flushLocked()
	}
	return nil
}

// flushLocked moves every deposited frame into queued sections, one
// section per window in ascending order, and wakes the writer. The first
// section is led by the hello.
func (l *Link) flushLocked() {
	for {
		var seq uint64
		count := 0
		for _, b := range l.bridges {
			if b.queued && (count == 0 || b.sendSeq < seq) {
				seq, count = b.sendSeq, 0
			}
			if b.queued && b.sendSeq == seq {
				count++
			}
		}
		if count == 0 {
			break
		}
		if l.queued == 0 {
			l.pend = appendHello(l.pend, l.step, l.cfg.TopologyHash, l.seq0)
		}
		l.pend = binary.AppendUvarint(l.pend, seq)
		l.pend = binary.AppendUvarint(l.pend, uint64(l.step))
		l.pend = binary.AppendUvarint(l.pend, uint64(count))
		for k, b := range l.bridges {
			if b.queued && b.sendSeq == seq {
				if count < len(l.bridges) {
					l.pend = binary.AppendUvarint(l.pend, uint64(k))
				}
				l.pend = append(l.pend, b.sendBuf...)
				b.queued = false
				b.ticket = l.queued
			}
		}
		l.cuts = append(l.cuts, cut{end: len(l.pend), seq: seq, frames: count})
		l.queued++
	}
	if l.writerDone == nil && len(l.cuts) > 0 {
		l.writerDone = make(chan struct{})
		go l.writerLoop(l.writerDone)
	}
	l.wake.Signal()
}

// flushQueuedLocked hands any deposited frame to the writer: the caller
// is about to block, possibly on the peer.
func (l *Link) flushQueuedLocked() {
	for _, b := range l.bridges {
		if b.queued {
			l.flushLocked()
			return
		}
	}
}

// wait blocks the calling bridge until the link's state changes.
func (l *Link) wait() {
	l.flushQueuedLocked()
	l.waiting++
	l.cond.Wait()
	l.waiting--
}

// writerLoop is the link's only socket writer. It writes queued sections
// one Write each and exits, closing done, once the link fails or closes.
func (l *Link) writerLoop(done chan struct{}) {
	defer close(done)
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		for len(l.cuts) == 0 && l.err == nil {
			l.wake.Wait()
		}
		if l.err != nil {
			return
		}
		buf, cuts := l.pend, l.cuts
		l.pend, l.cuts = l.spare[:0], l.spareCuts[:0]
		m := l.metrics.Load()
		l.mu.Unlock()

		l.armDeadline(l.cfg.WriteTimeout, deadlineConn.SetWriteDeadline)
		start := 0
		var err error
		for _, c := range cuts {
			var k int
			k, err = l.conn.Write(buf[start:c.end])
			l.wireSent.Add(uint64(k))
			if m != nil {
				m.bytesSent.Add(uint64(k))
			}
			if err != nil {
				err = fmt.Errorf("send batch %d: %w", c.seq, err)
				break
			}
			if m != nil {
				m.writes.Inc()
				m.frames.Add(uint64(c.frames))
			}
			start = c.end
			l.mu.Lock()
			l.written++
			l.cond.Broadcast()
			l.mu.Unlock()
		}

		l.mu.Lock()
		l.spare, l.spareCuts = buf, cuts
		if err != nil {
			l.failLocked(err)
		}
	}
}

// exchange completes b's current window: it receives the peer's frame
// for it into out, then waits until b's own frame has been written.
func (l *Link) exchange(b *Bridge, out *token.Batch) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.receiveLocked(b, out); err != nil {
		return err
	}
	for b.queued || l.written <= b.ticket {
		if l.err != nil {
			return l.err
		}
		l.wait()
	}
	b.nextRecv++
	return nil
}

// receiveLocked blocks until the peer's frame for b's current window is
// in hand, reading the socket itself when no other bridge is.
func (l *Link) receiveLocked(b *Bridge, out *token.Batch) error {
	for {
		if len(b.inbox) > 0 {
			in := b.inbox[0]
			b.inbox = append(b.inbox[:0], b.inbox[1:]...)
			out.N = in.N
			out.Slots = append(out.Slots[:0], in.Slots...)
			l.free = append(l.free, in)
			return nil
		}
		if l.err != nil {
			return l.err
		}
		if l.reading {
			l.wait()
			continue
		}
		l.reading = true
		l.flushQueuedLocked()
		l.waiting++
		l.mu.Unlock()
		got, err := l.readSection(b, out)
		l.mu.Lock()
		if _, mismatch := err.(errHandshake); mismatch {
			// Let our own hello reach the peer before failing, so both
			// sides report the mismatch instead of one seeing a closed
			// connection.
			for l.written == 0 && l.err == nil {
				l.cond.Wait()
			}
		}
		l.reading = false
		l.waiting--
		l.cond.Broadcast()
		if err != nil {
			l.failLocked(err)
			return l.err
		}
		if got {
			return nil
		}
	}
}

// readSection reads one section (after the peer's hello, on the first
// call) as the reader role. A frame for me is decoded straight into out;
// the others are filed into their bridges' inboxes. It reports whether
// me's frame was among them.
func (l *Link) readSection(me *Bridge, out *token.Batch) (bool, error) {
	l.armDeadline(l.cfg.ReadTimeout, deadlineConn.SetReadDeadline)
	if !l.helloIn {
		if err := l.readHello(); err != nil {
			return false, err
		}
		l.helloIn = true
	}
	got, err := l.readFrames(me, out)
	if err != nil {
		return false, fmt.Errorf("recv batch %d: %w", me.nextRecv, err)
	}
	return got, nil
}

func (l *Link) readFrames(me *Bridge, out *token.Batch) (got bool, err error) {
	seq, err := binary.ReadUvarint(l.r)
	if err != nil {
		return false, err
	}
	n, err := readCycles(l.r)
	if err != nil {
		return false, err
	}
	if n != l.step {
		return false, fmt.Errorf("peer batch covers %d cycles, local step is %d", n, l.step)
	}
	units := uint64(len(l.bridges))
	count, err := binary.ReadUvarint(l.r)
	if err != nil {
		return false, tornEOF(err)
	}
	if count == 0 || count > units {
		return false, fmt.Errorf("transport: corrupt section: %d frames on a %d-unit link", count, units)
	}
	next := uint64(0) // lowest slot the next frame may name
	for i := uint64(0); i < count; i++ {
		k := i
		if count < units {
			if k, err = binary.ReadUvarint(l.r); err != nil {
				return false, tornEOF(err)
			}
			if k < next || k >= units {
				return false, fmt.Errorf("transport: corrupt section: slot %d on a %d-unit link, %d or above expected", k, units, next)
			}
		}
		next = k + 1
		b := l.bridges[k]
		if seq != b.recvSeq {
			if m := b.metrics; m != nil {
				m.seqGaps.Inc()
			}
			return false, fmt.Errorf("sequence gap: %s got batch %d, expected %d", b.name, seq, b.recvSeq)
		}
		if b == me {
			if err := readRuns(l.r, n, out); err != nil {
				return false, err
			}
			got = true
		} else {
			var dst *token.Batch
			l.mu.Lock()
			if k := len(l.free); k > 0 {
				dst, l.free = l.free[k-1], l.free[:k-1]
			} else {
				dst = token.NewBatch(n)
			}
			l.mu.Unlock()
			if err := readRuns(l.r, n, dst); err != nil {
				return false, err
			}
			l.mu.Lock()
			b.inbox = append(b.inbox, dst)
			l.mu.Unlock()
		}
		b.recvSeq++
	}
	return got, nil
}

// appendHello appends the link hello: magic, protocol version, batch
// step, topology hash and the window both sides resume at.
func appendHello(dst []byte, step int, topoHash, seq uint64) []byte {
	var hello [helloSize]byte
	binary.BigEndian.PutUint32(hello[0:4], helloMagic)
	binary.BigEndian.PutUint16(hello[4:6], helloVersion)
	// hello[6:8] flags, reserved.
	binary.BigEndian.PutUint32(hello[8:12], uint32(step))
	binary.BigEndian.PutUint64(hello[16:24], topoHash)
	binary.BigEndian.PutUint64(hello[24:32], seq)
	return append(dst, hello[:]...)
}

// readHello reads and validates the peer's hello.
func (l *Link) readHello() error {
	var peer [helloSize]byte
	if _, err := io.ReadFull(l.r, peer[:]); err != nil {
		return fmt.Errorf("handshake read: %w", err)
	}
	mismatch := func(format string, args ...any) error {
		return errHandshake{fmt.Errorf("handshake: "+format, args...)}
	}
	if magic := binary.BigEndian.Uint32(peer[0:4]); magic != helloMagic {
		return mismatch("bad magic %#x (peer is not a token bridge?)", magic)
	}
	if v := binary.BigEndian.Uint16(peer[4:6]); v != helloVersion {
		return mismatch("protocol version %d, local %d", v, helloVersion)
	}
	if ps := int(binary.BigEndian.Uint32(peer[8:12])); ps != l.step {
		return mismatch("peer batch step %d cycles, local step %d (link latencies must match)", ps, l.step)
	}
	if ph := binary.BigEndian.Uint64(peer[16:24]); ph != 0 && l.cfg.TopologyHash != 0 && ph != l.cfg.TopologyHash {
		return mismatch("topology hash %#x, local %#x (the two halves describe different targets)", ph, l.cfg.TopologyHash)
	}
	if ps := binary.BigEndian.Uint64(peer[24:32]); ps != l.seq0 {
		return mismatch("peer resumes at batch %d, local at %d", ps, l.seq0)
	}
	return nil
}

// deadlineConn is the optional connection capability used for timeouts.
type deadlineConn interface {
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// armDeadline arms one direction's deadline when a timeout is configured
// and the connection supports deadlines.
func (l *Link) armDeadline(timeout time.Duration, set func(deadlineConn, time.Time) error) {
	if dc, ok := l.conn.(deadlineConn); ok && timeout > 0 {
		set(dc, time.Now().Add(timeout))
	}
}

// countingReader is the wire-truth shim under the link's bufio reader:
// every byte the connection returns is counted.
type countingReader struct {
	r io.Reader
	l *Link
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.l.wireRecv.Add(uint64(n))
	if m := c.l.metrics.Load(); m != nil {
		m.bytesRecv.Add(uint64(n))
	}
	return n, err
}
