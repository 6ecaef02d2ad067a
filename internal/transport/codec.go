package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/token"
)

// Wire codec v3: run-length-encoded batch frames.
//
// The v2 codec (v2_test.go, kept as the test oracle) spent 13
// bytes per occupied slot — a 4-byte absolute offset, 8 data bytes and a
// flag byte — plus a fixed 16-byte header per frame, and issued one
// buffered Write per slot. Both common cases wasted most of that: an idle
// link ships empty batches (16 header bytes for zero payload), and an
// active link ships contiguous bursts whose offsets differ by exactly 1
// with identical flags.
//
// A v3 frame body encodes one batch as runs of consecutive slots:
//
//	uvarint runCount                    number of runs that follow
//	per run:
//	  uvarint gap                       run start − end of previous run
//	  uvarint runLen<<1 | lastBit       slots in the run, shared Last flag
//	  runLen × 8-byte big-endian data   one word per slot
//
// The window sequence number and the batch cycle count N are not part of
// the body: every unit on a token link shares one window, so link.go
// writes them once per window section, ahead of that window's bodies.
//
// A run is a maximal span of slots at consecutive offsets sharing one
// Last flag; Valid is implicit (stored tokens are always valid, exactly
// the invariant the v2 decoder enforces). The previous-run end starts at
// offset 0, so gaps are non-negative by construction and overlapping or
// reordered runs are unrepresentable.
//
// Costs: an empty batch body is 1 byte (vs 16 for a v2 frame); a dense
// contiguous batch is ~8.2 bytes/slot (vs 13); the body is appended to a
// scratch buffer with no I/O.

// maxSlots bounds decoded batch occupancy as a sanity check against
// corrupt streams.
const maxSlots = 1 << 24

// maxBatchCycles bounds the decoded N as a sanity check against corrupt
// streams; it matches the v2 codec's implicit uint32 offset ceiling.
const maxBatchCycles = 1 << 32

// appendRuns appends the v3 body of one batch to dst and returns the
// extended slice. It performs no I/O and no allocation beyond growing dst.
func appendRuns(dst []byte, b *token.Batch) []byte {
	slots := b.Slots
	runs := 0
	for i := 0; i < len(slots); i = runEnd(slots, i) {
		runs++
	}
	dst = binary.AppendUvarint(dst, uint64(runs))
	prev := 0
	for i := 0; i < len(slots); {
		j := runEnd(slots, i)
		start := int(slots[i].Offset)
		dst = binary.AppendUvarint(dst, uint64(start-prev))
		desc := uint64(j-i) << 1
		if slots[i].Tok.Last {
			desc |= 1
		}
		dst = binary.AppendUvarint(dst, desc)
		for k := i; k < j; k++ {
			dst = binary.BigEndian.AppendUint64(dst, slots[k].Tok.Data)
		}
		prev = start + (j - i)
		i = j
	}
	return dst
}

// runEnd returns the index one past the maximal run starting at i: slots
// at consecutive offsets sharing the Last flag of slots[i].
func runEnd(slots []token.Slot, i int) int {
	j := i + 1
	for j < len(slots) && slots[j].Offset == slots[j-1].Offset+1 && slots[j].Tok.Last == slots[i].Tok.Last {
		j++
	}
	return j
}

// readCycles reads and bounds a batch cycle count N.
func readCycles(r *bufio.Reader) (int, error) {
	nv, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("transport: read batch cycles: %w", tornEOF(err))
	}
	if nv == 0 || nv > maxBatchCycles {
		return 0, fmt.Errorf("transport: corrupt batch: covers %d cycles", nv)
	}
	return int(nv), nil
}

// readRuns decodes a v3 body covering n cycles from r into dst, which is
// Reset first. Malformed input — zero-length runs, slot totals past n or
// the occupancy ceiling, truncated varints or data words — returns an
// error and never panics; io.EOF mid-body surfaces as io.ErrUnexpectedEOF
// because the body always follows a header already consumed. The decode
// is allocation-free once dst's slot capacity has warmed up.
func readRuns(r *bufio.Reader, n int, dst *token.Batch) error {
	runs, err := binary.ReadUvarint(r)
	if err != nil {
		return fmt.Errorf("transport: read run count: %w", tornEOF(err))
	}
	// Every run carries at least one slot, so the run count is bounded by
	// the same occupancy ceiling as the slots themselves.
	if runs > maxSlots {
		return fmt.Errorf("transport: corrupt batch: %d runs", runs)
	}
	dst.Reset(n)
	next := 0 // one past the previous run's end
	total := 0
	for ri := uint64(0); ri < runs; ri++ {
		gap, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("transport: read run gap: %w", tornEOF(err))
		}
		desc, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("transport: read run descriptor: %w", tornEOF(err))
		}
		runLen := desc >> 1
		last := desc&1 != 0
		if runLen == 0 {
			return fmt.Errorf("transport: corrupt batch: empty run %d", ri)
		}
		if gap > uint64(n) || runLen > uint64(n) {
			return fmt.Errorf("transport: corrupt batch: run %d at gap %d, length %d exceeds %d cycles", ri, gap, runLen, n)
		}
		start := next + int(gap)
		end := start + int(runLen)
		if end > n {
			return fmt.Errorf("transport: corrupt batch: run %d spans [%d,%d) past %d cycles", ri, start, end, n)
		}
		total += int(runLen)
		if total > maxSlots {
			return fmt.Errorf("transport: corrupt batch: %d slots", total)
		}
		for off := start; off < end; off++ {
			p, err := r.Peek(8)
			if err != nil {
				return fmt.Errorf("transport: read run data: %w", tornEOF(err))
			}
			dst.Put(off, token.Token{
				Data:  binary.BigEndian.Uint64(p),
				Valid: true,
				Last:  last,
			})
			r.Discard(8)
		}
		next = end
	}
	return nil
}

// tornEOF maps a clean EOF inside a frame body to io.ErrUnexpectedEOF:
// the caller has already consumed part of the frame, so the stream ending
// here is a truncation, not a graceful close.
func tornEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
