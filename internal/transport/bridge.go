package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/token"
)

// A Bridge is one cut point of a partitioned simulation: a one-port
// fame.Endpoint standing where the remote half of the topology would
// attach. The bytes travel on the Bridge's Link (link.go), which may
// carry several bridges; the Bridge itself adds, in layers:
//
//   - a connect-time handshake, carried by its link, validating protocol
//     version, batch step and (optionally) a topology hash, so
//     mismatched halves fail fast with a descriptive error instead of
//     desynchronising;
//   - a per-window sequence number checked on every received frame, so a
//     lost or reordered window is a hard error that the coordinator's
//     checkpoint-rewind recovery handles, never silent corruption;
//   - deadline-based reads and writes (when the connection supports
//     deadlines, as net.Conn does), so a hung peer surfaces as an error
//     instead of blocking target time forever;
//   - an explicit degraded mode (Degrade) for the supervisor: a bridge
//     whose peer is declared permanently dead stops touching the network
//     and emits empty batches, letting the surviving partition drain and
//     report partial results instead of hanging.

// Protocol constants for the token link stream.
const (
	helloMagic   uint32 = 0x4653_4b54 // "FSKT"
	helloVersion uint16 = 4           // bumped for one shared link per process pair
	helloSize           = 32
)

// ErrDegraded is latched on a bridge that the supervisor has marked
// permanently down; its TickBatch is a no-op from then on.
var ErrDegraded = errors.New("transport: bridge degraded (peer declared dead)")

// ErrClosed is latched on a bridge another goroutine has Closed; any
// in-flight or subsequent TickBatch fails fast instead of blocking.
var ErrClosed = errors.New("transport: bridge closed")

// BridgeConfig tunes the transport. The zero value blocks indefinitely
// and validates only the batch step at handshake.
type BridgeConfig struct {
	// ReadTimeout bounds each read of the link (the handshake included)
	// when the connection supports deadlines. Zero blocks forever.
	ReadTimeout time.Duration
	// WriteTimeout bounds each write likewise.
	WriteTimeout time.Duration
	// TopologyHash, when non-zero on both sides, must match at handshake
	// time: it guards against wiring two halves of different topologies
	// (or different config revisions) together.
	TopologyHash uint64
}

// Bridge splices one token stream endpoint of a distributed simulation.
// It forwards everything received on its single local port to the peer
// and emits everything the peer sends. Both sides must advance in
// identical batch steps (validated by the handshake).
//
// A Bridge is driven from a single scheduler goroutine; it is not safe
// for concurrent TickBatch calls. Bridges sharing a link may be driven
// from different goroutines. Degrade is intended to be called between
// Run steps (the supervisor's pattern).
type Bridge struct {
	name string
	cfg  BridgeConfig
	link atomic.Pointer[Link]

	// closed flips on Close; Reset clears it.
	closed atomic.Bool

	err      error
	degraded bool
	step     int

	// Window counters, written by the driving goroutine under the link's
	// mutex: nextSend counts deposited frames, nextRecv committed
	// exchanges. sendBuf holds the encoded frame for window sendSeq while
	// queued; ticket numbers the link section that carries it.
	nextSend uint64
	nextRecv uint64
	sendSeq  uint64
	queued   bool
	ticket   uint64
	sendBuf  []byte

	// recvSeq is the next window the link expects to file for this
	// bridge (owned by the link's reader role); inbox holds frames
	// filed ahead of this bridge's own read (under the link's mutex).
	recvSeq uint64
	inbox   []*token.Batch

	// metrics, when non-nil, exports the bridge's ledger to the
	// observability layer (see metrics.go); reg is kept so a later link
	// registers its own instruments in the same registry.
	metrics *bridgeMetrics
	reg     *obs.Registry
}

// NewBridge wraps a connection with the default (blocking) configuration.
// Each side of the distributed simulation creates one Bridge over its end
// of the connection and Connects it where the remote half of the topology
// would attach.
func NewBridge(name string, conn io.ReadWriter) *Bridge {
	return NewBridgeConfig(name, conn, BridgeConfig{})
}

// NewBridgeConfig wraps a connection with explicit robustness settings.
// A nil conn builds a detached bridge; bind it with Reset or Attach.
func NewBridgeConfig(name string, conn io.ReadWriter, cfg BridgeConfig) *Bridge {
	b := &Bridge{name: name, cfg: cfg}
	if conn != nil {
		Attach(conn, 0, b)
	}
	return b
}

// reset binds b to link l at window seq, clearing every per-link state.
func (b *Bridge) reset(l *Link, seq uint64) {
	b.link.Store(l)
	b.closed.Store(false)
	b.err = nil
	b.degraded = false
	b.step = 0
	b.nextSend = seq
	b.nextRecv = seq
	b.recvSeq = seq
	b.queued = false
	b.inbox = b.inbox[:0]
	if m := b.metrics; m != nil {
		m.degraded.Set(0)
	}
}

// Link returns the link the bridge currently rides, or nil when detached.
func (b *Bridge) Link() *Link { return b.link.Load() }

// Err reports the first permanent transport error encountered (the
// simulation cannot continue past one; subsequent batches are empty).
func (b *Bridge) Err() error { return b.err }

// Degraded reports whether the bridge has been marked permanently down.
func (b *Bridge) Degraded() bool { return b.degraded }

// Received reports how many batches have been exchanged, which tells a
// supervisor the last target cycle the peer confirmed.
func (b *Bridge) Received() uint64 { return b.nextRecv }

// Step reports the batch step in target cycles (0 before the first
// window). Received()*Step() is the last target cycle the peer
// confirmed, which a supervisor reports for a dead partition.
func (b *Bridge) Step() int { return b.step }

// WireBytesSent and PrecodecBytes report the totals of the bridge's link
// (see Link); every bridge on a link reports the same figures, so sum
// them per link, not per bridge.
func (b *Bridge) WireBytesSent() uint64 { return b.link.Load().WireBytesSent() }
func (b *Bridge) PrecodecBytes() uint64 { return b.link.Load().PrecodecBytes() }

// Degrade marks the bridge permanently down: TickBatch becomes a no-op
// that emits empty batches (the surviving partition sees silence from the
// dead one, exactly as if those links went dark). The bridge's link is
// closed, which fails any other bridge sharing it.
func (b *Bridge) Degrade() {
	b.degraded = true
	if b.err == nil {
		b.err = ErrDegraded
	}
	if m := b.metrics; m != nil {
		m.degraded.Set(1)
	}
	if l := b.link.Load(); l != nil {
		l.Close()
	}
}

// Reset revives a bridge (possibly degraded, errored or closed) onto a
// fresh connection as a one-unit link, rewinding both sequence counters
// to seq. It is the recovery path: after restoring a dead peer from a
// checkpoint taken at cycle C, both sides resume the token stream at
// batch C/step. The next TickBatch re-handshakes on the new connection.
func (b *Bridge) Reset(conn io.ReadWriter, seq uint64) {
	Attach(conn, seq, b)
}

// Close aborts the bridge from any goroutine: its link is closed
// (failing any blocked read or write immediately, on every bridge that
// shares it). The scheduler goroutine's next TickBatch latches ErrClosed.
// Close is idempotent and safe concurrently with TickBatch — it is the
// coordinator's lever for yanking a shard out of a doomed run without
// waiting for timeouts.
func (b *Bridge) Close() error {
	b.closed.Store(true)
	if l := b.link.Load(); l != nil {
		l.Close()
	}
	return nil
}

// Name implements fame.Endpoint.
func (b *Bridge) Name() string { return b.name }

// NumPorts implements fame.Endpoint.
func (b *Bridge) NumPorts() int { return 1 }

// fail latches err (wrapped with the bridge name) as permanent.
func (b *Bridge) fail(err error) {
	if b.err == nil {
		b.err = fmt.Errorf("transport: bridge %q: %w", b.name, err)
		if m := b.metrics; m != nil {
			m.errors.Inc()
		}
	}
}

// TickBatch implements fame.Endpoint: deposit the local batch on the link
// (unless StartBatch already did) and block for the peer's batch covering
// the same target window. After a permanent failure (or Degrade) it is a
// no-op, so the local runner keeps advancing with empty input from the
// dead partition instead of hanging.
func (b *Bridge) TickBatch(n int, in, out []*token.Batch) {
	if b.err != nil || b.degraded {
		return
	}
	if b.closed.Load() {
		b.fail(ErrClosed)
		return
	}
	l := b.link.Load()
	if l == nil {
		b.fail(errDetached)
		return
	}
	if b.nextSend == b.nextRecv {
		if err := l.deposit(b, n, in[0]); err != nil {
			b.fail(err)
			return
		}
	}
	b.step = n
	var stallStart time.Time
	if b.metrics != nil {
		stallStart = time.Now()
	}
	if err := l.exchange(b, out[0]); err != nil {
		out[0].Reset(n)
		b.fail(err)
		return
	}
	if m := b.metrics; m != nil {
		m.batchesSent.Inc()
		m.batchesRecv.Inc()
		m.stallNanos.Observe(uint64(time.Since(stallStart)))
	}
}

// StartBatch is the eager half of an exchange (the fame.EagerStarter
// fast path): it deposits this window's frame on the link as soon as the
// local batch is ready, so every cut-point bridge of a link has deposited
// before any of them blocks on a receive, and the link sends the whole
// window in one write. It is a best-effort no-op whenever the bridge
// cannot deposit; the following TickBatch then deposits itself and
// reports any error.
func (b *Bridge) StartBatch(n int, in []*token.Batch) {
	if b.err != nil || b.degraded || b.closed.Load() || b.nextSend != b.nextRecv {
		return
	}
	if l := b.link.Load(); l != nil {
		l.deposit(b, n, in[0])
	}
}

// jitterBackoff spreads a nominal backoff delay across [0.8, 1.2) of its
// value, deterministically seeded from a name and attempt number: a
// given caller always produces the same delay sequence (tests and reruns
// are reproducible), while different callers — the respawned shard
// fleet — spread out instead of redialing in lockstep.
func jitterBackoff(name string, attempt int, backoff time.Duration) time.Duration {
	h := fnv.New64a()
	h.Write([]byte(name))
	var a [8]byte
	binary.BigEndian.PutUint64(a[:], uint64(attempt))
	h.Write(a[:])
	// Top 53 bits → uniform float in [0, 1).
	u := float64(h.Sum64()>>11) / float64(uint64(1)<<53)
	return time.Duration(float64(backoff) * (0.8 + 0.4*u))
}
