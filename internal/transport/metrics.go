package transport

import (
	"repro/internal/obs"
)

// This file wires bridges and links into the observability layer
// (internal/obs). A distributed run's health story lives almost entirely
// in its token plane — whether a peer ever produced a sequence gap, how
// long exchanges stalled, how well windows coalesce — so each bridge
// exports its exchange ledger and each link its wire volume.
//
// Instruments are updated at frame or write granularity (never per
// token), each one uncontended atomic add.
//
// Bridge metrics, labelled with the bridge name:
//
//	transport_batches_sent_total{bridge=B}     committed batch sends
//	transport_batches_recv_total{bridge=B}     committed batch receives
//	transport_stall_nanos{bridge=B}            histogram: per-exchange wall time blocked on the peer's batch
//	transport_seq_gaps_total{bridge=B}         fatal sequence gaps observed
//	transport_errors_total{bridge=B}           permanent transport errors latched
//	transport_degraded{bridge=B}               gauge: 1 once the bridge is degraded
//
// Link metrics, labelled with the link name (its bridges' names joined
// by "+"):
//
//	transport_bytes_sent_total{link=L}         wire bytes written (counted at the connection, not recomputed)
//	transport_bytes_recv_total{link=L}         wire bytes read (likewise)
//	transport_precodec_bytes_total{link=L}     what the sent traffic would cost under the v2 codec, one connection per unit
//	transport_link_writes_total{link=L}        socket writes carrying window sections
//	transport_link_frames_total{link=L}        unit frames those writes carried
//
// The byte counters are fed by the connection itself (the link's writer
// and a counting shim under its reader), so they report what actually
// crossed the wire — hello, section framing and torn partial writes
// included. frames/writes is the coalescing factor: on a clean run it
// equals the number of units on the link.
type bridgeMetrics struct {
	batchesSent *obs.Counter
	batchesRecv *obs.Counter
	stallNanos  *obs.Histogram
	seqGaps     *obs.Counter
	errors      *obs.Counter
	degraded    *obs.Gauge
}

type linkMetrics struct {
	bytesSent     *obs.Counter
	bytesRecv     *obs.Counter
	precodecBytes *obs.Counter
	writes        *obs.Counter
	frames        *obs.Counter
}

// EnableMetrics attaches the bridge, and the link it rides now or later,
// to a registry. Passing nil detaches the bridge. Call it before the run
// starts, from the goroutine that will drive TickBatch.
func (b *Bridge) EnableMetrics(reg *obs.Registry) {
	b.reg = reg
	if reg == nil {
		b.metrics = nil
		return
	}
	label := func(metric string) string { return obs.Label(metric, "bridge", b.name) }
	b.metrics = &bridgeMetrics{
		batchesSent: reg.Counter(label("transport_batches_sent_total")),
		batchesRecv: reg.Counter(label("transport_batches_recv_total")),
		stallNanos:  reg.Histogram(label("transport_stall_nanos")),
		seqGaps:     reg.Counter(label("transport_seq_gaps_total")),
		errors:      reg.Counter(label("transport_errors_total")),
		degraded:    reg.Gauge(label("transport_degraded")),
	}
	if l := b.link.Load(); l != nil {
		l.EnableMetrics(reg)
	}
}

// EnableMetrics attaches the link to a registry; call it before the
// link's first window. Passing nil detaches.
func (l *Link) EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		l.metrics.Store(nil)
		return
	}
	label := func(metric string) string { return obs.Label(metric, "link", l.name) }
	l.metrics.Store(&linkMetrics{
		bytesSent:     reg.Counter(label("transport_bytes_sent_total")),
		bytesRecv:     reg.Counter(label("transport_bytes_recv_total")),
		precodecBytes: reg.Counter(label("transport_precodec_bytes_total")),
		writes:        reg.Counter(label("transport_link_writes_total")),
		frames:        reg.Counter(label("transport_link_frames_total")),
	})
}

// frameWireBytes is the exact on-wire size of one sequenced v2 batch
// frame: 8-byte sequence header, 8-byte batch header, 13 bytes per
// occupied slot. The v3 codec prices its precodec (baseline) accounting
// with it; it is no longer what crosses the wire.
func frameWireBytes(slots int) uint64 { return 8 + 8 + 13*uint64(slots) }
