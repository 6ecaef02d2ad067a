package softstack

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/ethernet"
	"repro/internal/token"
)

// Config describes one modeled-OS node.
type Config struct {
	// Name identifies the node.
	Name string
	// MAC and IP are assigned by the simulation manager.
	MAC ethernet.MAC
	IP  ethernet.IP
	// Cores is the number of CPU cores (Table I: up to 4).
	Cores int
	// Freq is the target clock (default 3.2 GHz).
	Freq clock.Hz
	// Costs are the modeled kernel constants; zero fields take defaults.
	Costs Costs
	// Seed drives the node's deterministic scheduler randomness.
	Seed uint64
	// StaticARP, when non-nil, pre-populates the ARP table (the manager
	// does this for most experiments; the ping benchmark leaves it empty
	// to reproduce the first-sample ARP artifact).
	StaticARP map[ethernet.IP]ethernet.MAC
}

// txFrame is a frame queued for transmission.
type txFrame struct {
	flits   []uint64
	readyAt clock.Cycles
	flit    int
}

// txQueue is the FIFO of frames awaiting transmission: a slice read from
// a head index. Popping the last frame rewinds it to the start, and a push
// that would grow a slice with popped cells at its head compacts it
// instead, so a steady stream reuses one backing array.
type txQueue struct {
	buf  []txFrame
	head int
}

func (q *txQueue) len() int { return len(q.buf) - q.head }

func (q *txQueue) front() *txFrame { return &q.buf[q.head] }

// frames returns the queued frames in FIFO order, for snapshotting.
func (q *txQueue) frames() []txFrame { return q.buf[q.head:] }

func (q *txQueue) push(f txFrame) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		m := copy(q.buf, q.buf[q.head:])
		clear(q.buf[m:])
		q.buf = q.buf[:m]
		q.head = 0
	}
	q.buf = append(q.buf, f)
}

func (q *txQueue) pop() {
	q.buf[q.head] = txFrame{} // drop the flit slab reference
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
}

// generator produces paced raw frames for bandwidth experiments.
type generator struct {
	dst      ethernet.MAC
	flits    []uint64
	next     float64 // next frame emission cycle
	interval float64 // cycles between frame starts
	stopAt   clock.Cycles
}

// UDPHandler receives datagrams delivered by the kernel RX path.
type UDPHandler func(now clock.Cycles, src ethernet.IP, srcPort uint16, payload []byte)

// Stats counts node network activity.
type Stats struct {
	FramesSent uint64
	FramesRecv uint64
	BytesSent  uint64
	BytesRecv  uint64
	ARPLookups uint64
}

// PingResult is one echo round trip.
type PingResult struct {
	Seq int
	RTT clock.Cycles
}

type pinger struct {
	dst      ethernet.IP
	count    int
	interval clock.Cycles
	results  []PingResult
	sentAt   map[uint16]clock.Cycles
	done     func([]PingResult)
}

// Node is a modeled-OS server on the token network, implementing
// fame.Endpoint with a single network port.
type Node struct {
	cfg   Config
	clk   clock.Clock
	costs Costs

	cycle    clock.Cycles
	events   eventHeap
	eventSeq uint64

	sched   *scheduler
	threads []*Thread

	// network state
	arp        map[ethernet.IP]ethernet.MAC
	arpWaiting map[ethernet.IP][]func(now clock.Cycles, mac ethernet.MAC)
	udp        map[uint16]UDPHandler
	rxFlits    []uint64
	// rxBytes is handleFrame's reusable decode scratch.
	rxBytes []byte

	// TX engine
	txq      txQueue
	txCursor clock.Cycles
	gen      *generator

	pingers map[uint16]*pinger
	nextID  uint16

	// RemoteMemHandler, when set, receives TypeRemoteMem frames (the
	// disaggregated-memory protocol of Section VI) after IRQ latency. It
	// is a public field so package pfa can implement the memory blade
	// without softstack depending on it.
	RemoteMemHandler RemoteMemFn

	stats Stats
}

// NewNode builds a node from cfg.
func NewNode(cfg Config) *Node {
	if cfg.Cores <= 0 {
		cfg.Cores = 4
	}
	if cfg.Freq == 0 {
		cfg.Freq = clock.DefaultTargetClock
	}
	cfg.Costs.applyDefaults(cfg.Freq)
	n := &Node{
		cfg:        cfg,
		clk:        clock.New(cfg.Freq),
		costs:      cfg.Costs,
		arp:        make(map[ethernet.IP]ethernet.MAC),
		arpWaiting: make(map[ethernet.IP][]func(clock.Cycles, ethernet.MAC)),
		udp:        make(map[uint16]UDPHandler),
		pingers:    make(map[uint16]*pinger),
	}
	for ip, mac := range cfg.StaticARP {
		n.arp[ip] = mac
	}
	n.sched = newScheduler(n, cfg.Cores, cfg.Seed+1)
	return n
}

// Name implements fame.Endpoint.
func (n *Node) Name() string { return n.cfg.Name }

// NumPorts implements fame.Endpoint.
func (n *Node) NumPorts() int { return 1 }

// MAC returns the node's MAC address.
func (n *Node) MAC() ethernet.MAC { return n.cfg.MAC }

// IP returns the node's IP address.
func (n *Node) IP() ethernet.IP { return n.cfg.IP }

// Clock returns the node's clock for cycle/time conversion.
func (n *Node) Clock() clock.Clock { return n.clk }

// Costs returns the node's kernel cost model.
func (n *Node) Costs() Costs { return n.costs }

// Now returns the node's current cycle (end of the last processed event).
func (n *Node) Now() clock.Cycles { return n.cycle }

// Stats returns a snapshot of the counters.
func (n *Node) Stats() Stats { return n.stats }

// LearnARP inserts a static ARP entry.
func (n *Node) LearnARP(ip ethernet.IP, mac ethernet.MAC) { n.arp[ip] = mac }

// --- fame.Endpoint ---

// TickBatch implements fame.Endpoint. It is event-driven: only occupied
// input tokens, due events, and pending transmissions cost host time, so
// an idle node advances a batch in O(1).
func (n *Node) TickBatch(nCycles int, in, out []*token.Batch) {
	start := n.cycle
	end := start + clock.Cycles(nCycles)

	// 1. Ingress: reassemble frames from occupied tokens.
	for _, slot := range in[0].Slots {
		n.rxFlits = append(n.rxFlits, slot.Tok.Data)
		if slot.Tok.Last {
			arrival := start + clock.Cycles(slot.Offset)
			n.stats.FramesRecv++
			n.stats.BytesRecv += uint64(len(n.rxFlits) * ethernet.FlitSize)
			n.handleFrame(arrival, n.rxFlits)
			n.rxFlits = n.rxFlits[:0]
		}
	}

	// 2. Drain due events (events may schedule more events within the
	// window; the heap keeps everything in cycle order).
	for len(n.events) > 0 && n.events[0].at < end {
		ev := n.events[0]
		popEvent(&n.events)
		now := ev.at
		if now < start {
			now = start
		}
		ev.fn(now)
	}

	// 3. Egress: emit queued frames, one flit per cycle.
	n.emitTX(start, end, out[0])
	n.cycle = end
}

func popEvent(h *eventHeap) {
	// container/heap Pop via the interface allocates; inline the fix-down
	// for the hot path.
	old := *h
	nh := len(old) - 1
	old[0] = old[nh]
	*h = old[:nh]
	if nh > 0 {
		siftDown(*h, 0)
	}
}

func siftDown(h eventHeap, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && h.Less(l, m) {
			m = l
		}
		if r < len(h) && h.Less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h.Swap(i, m)
		i = m
	}
}

// emitTX drains the TX queue into the output batch for cycles [start,end).
//
// The persisted txCursor advances only when a flit is actually emitted,
// so it always reads "one past the last emitted flit" — a pure function
// of the node's emission history. The window-local clamps below (snap a
// stale cursor up to start, wait for the head frame's readyAt) are
// re-derived every window, so folding them into the persisted value adds
// no information; it would, however, make saved state depend on the
// runner's batch quantum: a partition stepping in half-link windows
// would checkpoint a different cursor than the whole cluster stepping in
// full-link windows despite emitting identical tokens, breaking
// cross-process bit-identity checks.
func (n *Node) emitTX(start, end clock.Cycles, out *token.Batch) {
	cursor := n.txCursor
	if cursor < start {
		cursor = start
	}
	for {
		if n.txq.len() == 0 && !n.refillFromGenerator(end) {
			break
		}
		f := n.txq.front()
		if f.readyAt > cursor {
			cursor = f.readyAt
		}
		if cursor >= end {
			break
		}
		// The frame's ready flits for this window go out as one run.
		k := min(len(f.flits)-f.flit, int(end-cursor))
		next := f.flit + k
		out.PutRun(int(cursor-start), f.flits[f.flit:next], next == len(f.flits))
		f.flit = next
		cursor += clock.Cycles(k)
		n.txCursor = cursor
		if f.flit == len(f.flits) {
			n.stats.FramesSent++
			n.stats.BytesSent += uint64(len(f.flits) * ethernet.FlitSize)
			n.txq.pop()
		}
	}
}

// refillFromGenerator produces the next paced raw frame if a stream is
// active and due before end.
func (n *Node) refillFromGenerator(end clock.Cycles) bool {
	g := n.gen
	if g == nil {
		return false
	}
	next := clock.Cycles(g.next)
	if g.stopAt > 0 && next >= g.stopAt {
		n.gen = nil
		return false
	}
	if next >= end {
		return false
	}
	n.txq.push(txFrame{flits: g.flits, readyAt: next})
	g.next += g.interval
	return true
}

// sendFrameAt queues a frame for transmission no earlier than ready.
func (n *Node) sendFrameAt(ready clock.Cycles, f *ethernet.Frame) {
	flits, err := f.FrameFlits()
	if err != nil {
		panic(fmt.Sprintf("softstack: %v", err))
	}
	n.txq.push(txFrame{flits: flits, readyAt: ready})
}

// --- protocol handling (kernel) ---

// handleFrame decodes one received frame and schedules its handling.
// flits is the node's reassembly buffer, reused for the next frame as
// soon as handleFrame returns, so it must not be retained; the decode
// goes through the reusable rxBytes scratch, and DecodeFrame copies the
// payload out of it.
func (n *Node) handleFrame(arrival clock.Cycles, flits []uint64) {
	n.rxBytes = ethernet.AppendFlitBytes(n.rxBytes[:0], flits)
	fr, err := ethernet.DecodeFrame(n.rxBytes)
	if err != nil {
		return // malformed frame: dropped silently like real hardware
	}
	if fr.Dst != n.cfg.MAC && fr.Dst != ethernet.Broadcast {
		return // not ours (flooded or misdelivered)
	}
	switch fr.Type {
	case ethernet.TypeARP:
		n.handleARP(arrival, fr)
	case ethernet.TypeIPv4:
		n.handleIPv4(arrival, fr)
	case ethernet.TypeRemoteMem:
		if n.RemoteMemHandler != nil {
			n.at(arrival+n.costs.IRQLatency, func(now clock.Cycles) {
				n.RemoteMemHandler(now, fr.Src, fr.Payload)
			})
		}
	}
}

func (n *Node) handleARP(arrival clock.Cycles, fr *ethernet.Frame) {
	msg, err := ethernet.DecodeARP(fr.Payload)
	if err != nil {
		return
	}
	// Kernel handles ARP after IRQ+RX cost.
	n.at(arrival+n.costs.IRQLatency+n.costs.KernelRX, func(now clock.Cycles) {
		n.arp[msg.SenderIP] = msg.SenderMAC
		switch msg.Op {
		case ethernet.ARPRequest:
			if msg.TargetIP != n.cfg.IP {
				return
			}
			reply := &ethernet.ARP{
				Op: ethernet.ARPReply, SenderMAC: n.cfg.MAC, SenderIP: n.cfg.IP,
				TargetMAC: msg.SenderMAC, TargetIP: msg.SenderIP,
			}
			n.sendFrameAt(now+n.costs.KernelTX, &ethernet.Frame{
				Dst: msg.SenderMAC, Src: n.cfg.MAC, Type: ethernet.TypeARP, Payload: reply.Encode(),
			})
		case ethernet.ARPReply:
			if waiters := n.arpWaiting[msg.SenderIP]; len(waiters) > 0 {
				delete(n.arpWaiting, msg.SenderIP)
				for _, w := range waiters {
					w(now, msg.SenderMAC)
				}
			}
		}
	})
}

// resolve invokes fn with the MAC for ip, issuing an ARP request if
// needed.
func (n *Node) resolve(now clock.Cycles, ip ethernet.IP, fn func(now clock.Cycles, mac ethernet.MAC)) {
	n.stats.ARPLookups++
	if mac, ok := n.arp[ip]; ok {
		fn(now, mac)
		return
	}
	first := len(n.arpWaiting[ip]) == 0
	n.arpWaiting[ip] = append(n.arpWaiting[ip], fn)
	if !first {
		return
	}
	req := &ethernet.ARP{Op: ethernet.ARPRequest, SenderMAC: n.cfg.MAC, SenderIP: n.cfg.IP, TargetIP: ip}
	n.sendFrameAt(now+n.costs.KernelTX, &ethernet.Frame{
		Dst: ethernet.Broadcast, Src: n.cfg.MAC, Type: ethernet.TypeARP, Payload: req.Encode(),
	})
}

func (n *Node) handleIPv4(arrival clock.Cycles, fr *ethernet.Frame) {
	pkt, err := ethernet.DecodeIPv4(fr.Payload)
	if err != nil || pkt.Dst != n.cfg.IP {
		return
	}
	switch pkt.Proto {
	case ethernet.ProtoICMP:
		n.handleICMP(arrival, fr.Src, pkt)
	case ethernet.ProtoUDP:
		udp, err := ethernet.DecodeUDP(pkt.Payload)
		if err != nil {
			return
		}
		h, ok := n.udp[udp.DstPort]
		if !ok {
			return
		}
		// Kernel RX cost, then deliver to the socket layer.
		n.at(arrival+n.costs.IRQLatency+n.costs.KernelRX, func(now clock.Cycles) {
			h(now, pkt.Src, udp.SrcPort, udp.Payload)
		})
	}
}

func (n *Node) handleICMP(arrival clock.Cycles, srcMAC ethernet.MAC, pkt *ethernet.IPv4) {
	msg, err := ethernet.DecodeICMP(pkt.Payload)
	if err != nil {
		return
	}
	switch msg.Type {
	case ethernet.ICMPEchoRequest:
		// Kernel echoes in interrupt context: RX cost then TX cost.
		n.at(arrival+n.costs.IRQLatency+n.costs.KernelRX, func(now clock.Cycles) {
			reply := &ethernet.ICMP{Type: ethernet.ICMPEchoReply, ID: msg.ID, Seq: msg.Seq, SentCycle: msg.SentCycle}
			ip := &ethernet.IPv4{Src: n.cfg.IP, Dst: pkt.Src, Proto: ethernet.ProtoICMP, TTL: 64, Payload: reply.Encode()}
			n.arp[pkt.Src] = srcMAC // gratuitous learn, like Linux
			n.sendFrameAt(now+n.costs.KernelTX, &ethernet.Frame{
				Dst: srcMAC, Src: n.cfg.MAC, Type: ethernet.TypeIPv4, Payload: ip.Encode(),
			})
		})
	case ethernet.ICMPEchoReply:
		n.at(arrival+n.costs.IRQLatency+n.costs.KernelRX, func(now clock.Cycles) {
			p, ok := n.pingers[msg.ID]
			if !ok {
				return
			}
			sent, ok := p.sentAt[msg.Seq]
			if !ok {
				return
			}
			p.results = append(p.results, PingResult{Seq: int(msg.Seq), RTT: now - sent})
			if len(p.results) == p.count {
				delete(n.pingers, msg.ID)
				if p.done != nil {
					p.done(p.results)
				}
			}
		})
	}
}

// --- application-facing API ---

// HandleUDP registers a datagram handler for a local port.
func (n *Node) HandleUDP(port uint16, h UDPHandler) { n.udp[port] = h }

// SendUDP transmits a datagram with kernel TX cost applied as latency
// (use SendUDPAccounted when the calling thread already charged the cost
// as CPU time).
func (n *Node) SendUDP(now clock.Cycles, dst ethernet.IP, dstPort, srcPort uint16, payload []byte) {
	n.sendUDPAt(now+n.costs.KernelTX, dst, dstPort, srcPort, payload)
}

// SendUDPAccounted transmits a datagram immediately; the caller has
// already accounted the kernel TX cost as thread CPU time.
func (n *Node) SendUDPAccounted(now clock.Cycles, dst ethernet.IP, dstPort, srcPort uint16, payload []byte) {
	n.sendUDPAt(now, dst, dstPort, srcPort, payload)
}

func (n *Node) sendUDPAt(ready clock.Cycles, dst ethernet.IP, dstPort, srcPort uint16, payload []byte) {
	n.resolve(ready, dst, func(now clock.Cycles, mac ethernet.MAC) {
		udp := &ethernet.UDP{SrcPort: srcPort, DstPort: dstPort, Payload: payload}
		ip := &ethernet.IPv4{Src: n.cfg.IP, Dst: dst, Proto: ethernet.ProtoUDP, TTL: 64, Payload: udp.Encode()}
		n.sendFrameAt(now, &ethernet.Frame{Dst: mac, Src: n.cfg.MAC, Type: ethernet.TypeIPv4, Payload: ip.Encode()})
	})
}

// SendRemoteMem transmits a raw remote-memory protocol frame (Section VI).
func (n *Node) SendRemoteMem(ready clock.Cycles, dst ethernet.MAC, payload []byte) {
	n.sendFrameAt(ready, &ethernet.Frame{Dst: dst, Src: n.cfg.MAC, Type: ethernet.TypeRemoteMem, Payload: payload})
}

// RemoteMemFn receives remote-memory frames after IRQ latency.
type RemoteMemFn func(now clock.Cycles, src ethernet.MAC, payload []byte)

// Ping runs `count` echo round trips to dst, spaced by interval, invoking
// done with all results. It reproduces the Linux ping utility's behaviour:
// if dst is not in the ARP cache, the first sample includes the ARP
// round trip (the paper discards that first sample for exactly this
// reason).
func (n *Node) Ping(start clock.Cycles, dst ethernet.IP, count int, interval clock.Cycles, done func([]PingResult)) {
	id := n.nextID
	n.nextID++
	p := &pinger{dst: dst, count: count, interval: interval, sentAt: make(map[uint16]clock.Cycles), done: done}
	n.pingers[id] = p
	for i := 0; i < count; i++ {
		seq := uint16(i)
		n.at(start+clock.Cycles(i)*interval, func(now clock.Cycles) {
			p.sentAt[seq] = now
			msg := &ethernet.ICMP{Type: ethernet.ICMPEchoRequest, ID: id, Seq: seq, SentCycle: uint64(now)}
			ip := &ethernet.IPv4{Src: n.cfg.IP, Dst: dst, Proto: ethernet.ProtoICMP, TTL: 64, Payload: msg.Encode()}
			n.resolve(now+n.costs.KernelTX, dst, func(ready clock.Cycles, mac ethernet.MAC) {
				n.sendFrameAt(ready, &ethernet.Frame{Dst: mac, Src: n.cfg.MAC, Type: ethernet.TypeIPv4, Payload: ip.Encode()})
			})
		})
	}
}

// StartRawStream begins a paced raw Ethernet stream to dst, like the
// bare-metal bandwidth test of Section IV-C: frameBytes-sized frames at
// gbps (on a link whose raw rate is 64 bits per cycle). The stream stops
// at stopAt (0 = never).
func (n *Node) StartRawStream(startAt clock.Cycles, dst ethernet.MAC, frameBytes int, gbps float64, stopAt clock.Cycles) {
	payload := make([]byte, frameBytes-ethernet.HeaderLen)
	f := &ethernet.Frame{Dst: dst, Src: n.cfg.MAC, Type: ethernet.TypeIPv4, Payload: payload}
	flits, err := f.FrameFlits()
	if err != nil {
		panic(fmt.Sprintf("softstack: %v", err))
	}
	bitsPerFrame := float64(frameBytes * 8)
	cyclesPerFrame := bitsPerFrame / (gbps * 1e9) * float64(n.cfg.Freq)
	minInterval := float64(len(flits)) // cannot beat line rate
	if cyclesPerFrame < minInterval {
		cyclesPerFrame = minInterval
	}
	n.gen = &generator{dst: dst, flits: flits, next: float64(startAt), interval: cyclesPerFrame, stopAt: stopAt}
}

// StopStream halts the raw stream.
func (n *Node) StopStream() { n.gen = nil }
