// Package token defines the fundamental unit of data exchanged between
// decoupled simulation endpoints in a FireSim-style distributed simulation.
//
// On a simulated link, one token represents one target cycle's worth of
// data. A link of latency N cycles always has N tokens in flight: if an
// endpoint issues a token at target cycle M, the token is consumed at the
// other end at cycle M+N. Endpoints may not advance past a target cycle
// until they hold an input token for it, which is what makes the distributed
// simulation cycle-exact and deterministic.
//
// A token carries a 64-bit payload (one flit of a 200 Gbit/s link clocked at
// 3.2 GHz), a Valid flag marking cycles on which the endpoint actually
// transmitted, and a Last flag marking the final flit of a packet so that
// the transport layer can delimit packets without understanding the
// link-layer protocol.
package token

import (
	"fmt"
	"slices"
)

// Token is one target cycle's worth of link data.
type Token struct {
	// Data is the flit payload; meaningful only when Valid is set.
	Data uint64
	// Valid marks a cycle on which real data was transmitted. A zero Token
	// is an empty token: a cycle on which the endpoint sent nothing.
	Valid bool
	// Last marks the final flit of a packet. It lets transports and switch
	// ingress logic delimit packets without parsing the link-layer protocol.
	Last bool
}

// Empty is the canonical empty token, representing a cycle with no traffic.
var Empty = Token{}

// String implements fmt.Stringer for debugging output.
func (t Token) String() string {
	if !t.Valid {
		return "·"
	}
	if t.Last {
		return fmt.Sprintf("[%016x L]", t.Data)
	}
	return fmt.Sprintf("[%016x  ]", t.Data)
}

// Slot pairs a token with its cycle offset inside a Batch.
type Slot struct {
	// Offset is the cycle index within the batch, in [0, Batch.N).
	Offset int32
	// Tok is the token occupying that cycle.
	Tok Token
}

// Batch is a link-latency-sized group of tokens covering N consecutive
// target cycles. Moving whole batches (rather than individual tokens)
// amortises host transport latency exactly as described in the paper:
// tokens can be batched up to the target link latency without compromising
// cycle accuracy.
//
// Only occupied (valid) cycles are stored explicitly; all other cycles in
// the window are empty tokens. This keeps an idle link's batch O(1) to
// produce, move, and consume while remaining semantically identical to a
// dense array of N tokens.
type Batch struct {
	// N is the number of target cycles this batch covers.
	N int
	// Slots holds the occupied cycles in strictly increasing Offset order.
	Slots []Slot
}

// NewBatch returns an empty batch covering n cycles.
func NewBatch(n int) *Batch {
	if n <= 0 {
		panic(fmt.Sprintf("token: batch size must be positive, got %d", n))
	}
	return &Batch{N: n}
}

// Reset clears the batch in place so it can be reused for a new window of n
// cycles. Reusing batches avoids per-round allocation on hot simulation
// paths.
func (b *Batch) Reset(n int) {
	b.N = n
	b.Slots = b.Slots[:0]
}

// Put records tok at cycle offset within the batch. Offsets must be added
// in strictly increasing order; Put panics otherwise, since out-of-order
// writes would corrupt the per-cycle ordering invariants that the switch
// models rely on. Empty tokens are not stored. Put checks and appends one
// slot per call; datapaths that emit a packet's consecutive flits should
// use PutRun, which checks once per run.
func (b *Batch) Put(offset int, tok Token) {
	if offset < 0 || offset >= b.N {
		panic(fmt.Sprintf("token: offset %d out of batch range [0,%d)", offset, b.N))
	}
	if !tok.Valid {
		return
	}
	if n := len(b.Slots); n > 0 && int(b.Slots[n-1].Offset) >= offset {
		panic(fmt.Sprintf("token: out-of-order Put at offset %d after %d", offset, b.Slots[n-1].Offset))
	}
	b.Slots = append(b.Slots, Slot{Offset: int32(offset), Tok: tok})
}

// PutRun records len(data) consecutive valid tokens at offsets offset,
// offset+1, ..., setting Last on the final one when last is true. It is
// equivalent to calling Put once per token, but checks range and order
// once for the whole run and grows Slots once. It panics on the same
// violations as Put; an empty run records nothing.
func (b *Batch) PutRun(offset int, data []uint64, last bool) {
	k := len(data)
	if offset < 0 || offset+k > b.N {
		panic(fmt.Sprintf("token: run [%d,%d) out of batch range [0,%d)", offset, offset+k, b.N))
	}
	if k == 0 {
		return
	}
	n := len(b.Slots)
	if n > 0 && int(b.Slots[n-1].Offset) >= offset {
		panic(fmt.Sprintf("token: out-of-order PutRun at offset %d after %d", offset, b.Slots[n-1].Offset))
	}
	b.Slots = slices.Grow(b.Slots, k)[:n+k]
	run := b.Slots[n:]
	for i, d := range data {
		run[i] = Slot{Offset: int32(offset + i), Tok: Token{Data: d, Valid: true}}
	}
	run[k-1].Tok.Last = last
}

// At returns the token at the given cycle offset, which is the empty token
// for unoccupied cycles. It runs a binary search; prefer iterating Slots
// directly on hot paths.
func (b *Batch) At(offset int) Token {
	lo, hi := 0, len(b.Slots)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case int(b.Slots[mid].Offset) == offset:
			return b.Slots[mid].Tok
		case int(b.Slots[mid].Offset) < offset:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return Empty
}

// Occupied reports the number of valid tokens in the batch.
func (b *Batch) Occupied() int { return len(b.Slots) }

// IsEmpty reports whether the batch carries no valid tokens.
func (b *Batch) IsEmpty() bool { return len(b.Slots) == 0 }

// Dense expands the batch to a dense per-cycle token slice of length N.
// It is intended for tests and for per-cycle components (such as the
// cycle-exact SoC model) that genuinely need to observe every cycle.
func (b *Batch) Dense() []Token {
	out := make([]Token, b.N)
	for _, s := range b.Slots {
		out[s.Offset] = s.Tok
	}
	return out
}

// FromDense builds a batch from a dense token slice.
func FromDense(toks []Token) *Batch {
	b := NewBatch(len(toks))
	for i, t := range toks {
		b.Put(i, t)
	}
	return b
}

// Filter removes, in place, every token for which keep returns false. It
// preserves slot ordering and is the primitive fault injectors use to model
// link flaps and packet loss without reallocating the batch.
func (b *Batch) Filter(keep func(offset int, tok Token) bool) {
	kept := b.Slots[:0]
	for _, s := range b.Slots {
		if keep(int(s.Offset), s.Tok) {
			kept = append(kept, s)
		}
	}
	b.Slots = kept
}

// Mutate applies fn to every valid token in place. A token returned with
// Valid cleared is removed from the batch entirely (a dropped cycle), so fn
// can both corrupt and discard. Offsets cannot be changed — per-cycle
// ordering is an invariant of the batch.
func (b *Batch) Mutate(fn func(offset int, tok Token) Token) {
	kept := b.Slots[:0]
	for _, s := range b.Slots {
		t := fn(int(s.Offset), s.Tok)
		if !t.Valid {
			continue
		}
		s.Tok = t
		kept = append(kept, s)
	}
	b.Slots = kept
}

// Copy returns a deep copy of the batch. Transports that fan a batch out to
// multiple consumers must copy, since consumers may retain slot slices.
func (b *Batch) Copy() *Batch {
	nb := &Batch{N: b.N, Slots: make([]Slot, len(b.Slots))}
	copy(nb.Slots, b.Slots)
	return nb
}

// Queue is a FIFO of tokens used by per-cycle components (for example the
// NIC top-level interface) to stage tokens between the cycle-exact domain
// and the batched transport domain. The zero value is not usable; use
// NewQueue.
type Queue struct {
	buf  []Token
	head int
	size int
}

// NewQueue returns a queue with the given capacity. Capacity is fixed:
// token queues model finite hardware buffers.
func NewQueue(capacity int) *Queue {
	if capacity <= 0 {
		panic(fmt.Sprintf("token: queue capacity must be positive, got %d", capacity))
	}
	return &Queue{buf: make([]Token, capacity)}
}

// Len reports the number of tokens currently queued.
func (q *Queue) Len() int { return q.size }

// Cap reports the fixed capacity of the queue.
func (q *Queue) Cap() int { return len(q.buf) }

// Full reports whether the queue cannot accept another token.
func (q *Queue) Full() bool { return q.size == len(q.buf) }

// Push enqueues tok, reporting false if the queue is full.
func (q *Queue) Push(tok Token) bool {
	if q.Full() {
		return false
	}
	q.buf[(q.head+q.size)%len(q.buf)] = tok
	q.size++
	return true
}

// Pop dequeues the oldest token, reporting false if the queue is empty.
func (q *Queue) Pop() (Token, bool) {
	if q.size == 0 {
		return Empty, false
	}
	tok := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.size--
	return tok, true
}

// Peek returns the oldest token without dequeuing it.
func (q *Queue) Peek() (Token, bool) {
	if q.size == 0 {
		return Empty, false
	}
	return q.buf[q.head], true
}
