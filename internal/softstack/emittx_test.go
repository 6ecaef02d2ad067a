package softstack

// emitTXRef is the per-flit node egress loop that emitTX replaced: one
// Put per flit, one bounds-and-order check each. It is kept as the oracle
// for TestEmitTXMatchesReference, which demands that the run-at-a-time
// emitTX produce the same tokens, stats, cursor and queue state.

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/clock"
	"repro/internal/ethernet"
	"repro/internal/snapshot/snaptest"
	"repro/internal/token"
)

func emitTXRef(n *Node, start, end clock.Cycles, out *token.Batch) {
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
		for f.flit < len(f.flits) && cursor < end {
			last := f.flit == len(f.flits)-1
			out.Put(int(cursor-start), token.Token{Data: f.flits[f.flit], Valid: true, Last: last})
			f.flit++
			cursor++
		}
		n.txCursor = cursor
		if f.flit == len(f.flits) {
			n.stats.FramesSent++
			n.stats.BytesSent += uint64(len(f.flits) * ethernet.FlitSize)
			n.txq.pop()
		}
	}
}

// TestEmitTXMatchesReference property-checks emitTX against emitTXRef over
// random frame sizes (one flit to several windows long), ready times
// (bursts, gaps, out-of-order readiness), window sizes and raw-stream
// generators, window by window: out tokens, Stats, the TX cursor and the
// queued frames must be equal, and so must the nodes' checkpoints.
func TestEmitTXMatchesReference(t *testing.T) {
	cases := 200
	if testing.Short() {
		cases = 40
	}
	for c := 0; c < cases; c++ {
		c := c
		t.Run(fmt.Sprintf("case%d", c), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(c) + 1))
			mk := func() *Node { return NewNode(Config{Name: "tx", MAC: 0x11, IP: 0x0a000001, Cores: 1}) }
			a, b := mk(), mk()
			if rng.Intn(3) == 0 {
				startAt := clock.Cycles(rng.Intn(500))
				frameBytes := 64 + rng.Intn(1500)
				gbps := 1 + 250*rng.Float64()
				stopAt := clock.Cycles(0)
				if rng.Intn(2) == 0 {
					stopAt = startAt + clock.Cycles(rng.Intn(20000))
				}
				a.StartRawStream(startAt, 0x22, frameBytes, gbps, stopAt)
				b.StartRawStream(startAt, 0x22, frameBytes, gbps, stopAt)
			}
			var start clock.Cycles
			for w := 0; w < 60; w++ {
				n := 1 + rng.Intn(200)
				end := start + clock.Cycles(n)
				for q := rng.Intn(4); q > 0; q-- {
					flits := make([]uint64, 1+rng.Intn(3*n))
					for i := range flits {
						flits[i] = rng.Uint64()
					}
					ready := start + clock.Cycles(rng.Intn(2*n)) - clock.Cycles(rng.Intn(n))
					a.txq.push(txFrame{flits: flits, readyAt: ready})
					b.txq.push(txFrame{flits: flits, readyAt: ready})
				}
				outA, outB := token.NewBatch(n), token.NewBatch(n)
				a.emitTX(start, end, outA)
				emitTXRef(b, start, end, outB)
				if !slices.Equal(outA.Slots, outB.Slots) {
					t.Fatalf("window %d [%d,%d): tokens\n  got  %v\n  want %v", w, start, end, outA.Slots, outB.Slots)
				}
				if a.stats != b.stats || a.txCursor != b.txCursor {
					t.Fatalf("window %d: stats %+v cursor %d, reference %+v cursor %d",
						w, a.stats, a.txCursor, b.stats, b.txCursor)
				}
				fa, fb := a.txq.frames(), b.txq.frames()
				if len(fa) != len(fb) {
					t.Fatalf("window %d: %d queued frames, reference %d", w, len(fa), len(fb))
				}
				for i := range fa {
					if fa[i].flit != fb[i].flit || fa[i].readyAt != fb[i].readyAt || len(fa[i].flits) != len(fb[i].flits) {
						t.Fatalf("window %d frame %d: %+v, reference %+v", w, i, fa[i], fb[i])
					}
				}
				a.cycle, b.cycle = end, end
				start = end
			}
			if !bytes.Equal(snaptest.Save(t, a), snaptest.Save(t, b)) {
				t.Fatal("checkpoints differ from the reference node's")
			}
		})
	}
}

// TestRawStreamTxZeroAlloc gates the TX queue: a node streaming raw frames
// at 40 Gbps with no input traffic ticks a 6400-cycle batch without a heap
// allocation once its queue and output batch are warm (the
// append-and-reslice queue reallocated about once per frame).
func TestRawStreamTxZeroAlloc(t *testing.T) {
	const step = 6400
	n := NewNode(Config{Name: "tx", MAC: 0x11, IP: 0x0a000001, Cores: 1})
	n.StartRawStream(0, 0x22, 1024, 40, 0)
	in := []*token.Batch{token.NewBatch(step)}
	out := []*token.Batch{token.NewBatch(step)}
	tick := func() {
		out[0].Reset(step)
		n.TickBatch(step, in, out)
	}
	for i := 0; i < 4; i++ {
		tick()
	}
	if allocs := testing.AllocsPerRun(100, tick); allocs != 0 {
		t.Errorf("raw-stream TickBatch allocates %.1f objects per batch, want 0", allocs)
	}
	if n.Stats().FramesSent == 0 || out[0].IsEmpty() {
		t.Fatalf("stream sent nothing: %+v", n.Stats())
	}
}
