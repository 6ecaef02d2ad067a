package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"
)

// Token-plane connection bootstrap for multi-process runs. A shard
// process owns one or more partition units ("subtrees") and dials one
// TCP connection back to the coordinator per assignment epoch: a token
// link carrying every unit it hosts. The preamble written first tells
// the coordinator's accept loop which process dialed, for which epoch,
// and which units ride the link in which slot order, so conns from a
// previous (pre-recovery) epoch can be recognised and dropped:
//
//	magic   uint32   "FSTP"
//	epoch   uint32
//	nameLen uint8, name   the dialing process
//	count   uint16, count × uint32 unit   the link's slots, in order
const tokenPreambleMagic uint32 = 0x4653_5450 // "FSTP"

// TokenPreamble is what a token connection announces about itself.
type TokenPreamble struct {
	Name  string
	Epoch uint32
	Units []int
}

// DialToken dials the coordinator's token listener, retrying with
// jittered backoff until timeout, and writes the identifying preamble.
// The retry loop exists because a freshly assigned shard races the
// coordinator bringing its listener back up after a recovery.
func DialToken(addr string, pre TokenPreamble, timeout time.Duration) (net.Conn, error) {
	buf, err := appendPreamble(nil, pre)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(timeout)
	var lastErr error
	for attempt := 1; ; attempt++ {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("transport: dial token %s (%s): timed out after %v: %w", addr, pre.Name, timeout, lastErr)
		}
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			lastErr = err
			time.Sleep(jitterBackoff(addr, attempt, 20*time.Millisecond))
			continue
		}
		c.SetWriteDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Write(buf); err != nil {
			c.Close()
			lastErr = err
			continue
		}
		c.SetWriteDeadline(time.Time{})
		return c, nil
	}
}

func appendPreamble(dst []byte, pre TokenPreamble) ([]byte, error) {
	if len(pre.Name) > 255 || len(pre.Units) == 0 || len(pre.Units) > maxLinkUnits {
		return nil, fmt.Errorf("transport: token preamble: %d-byte name, %d units", len(pre.Name), len(pre.Units))
	}
	dst = binary.BigEndian.AppendUint32(dst, tokenPreambleMagic)
	dst = binary.BigEndian.AppendUint32(dst, pre.Epoch)
	dst = append(dst, byte(len(pre.Name)))
	dst = append(dst, pre.Name...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(pre.Units)))
	for _, u := range pre.Units {
		dst = binary.BigEndian.AppendUint32(dst, uint32(u))
	}
	return dst, nil
}

// ReadTokenPreamble reads an accepted connection's preamble within
// timeout. It checks the framing only; which units the named process may
// carry this epoch is the caller's to validate.
func ReadTokenPreamble(c net.Conn, timeout time.Duration) (TokenPreamble, error) {
	c.SetReadDeadline(time.Now().Add(timeout))
	defer c.SetReadDeadline(time.Time{})
	pre, err := readPreamble(c)
	if err != nil {
		return pre, fmt.Errorf("transport: token preamble: %w", err)
	}
	return pre, nil
}

func readPreamble(r io.Reader) (TokenPreamble, error) {
	var pre TokenPreamble
	var hdr struct {
		Magic, Epoch uint32
		NameLen      uint8
	}
	if err := binary.Read(r, binary.BigEndian, &hdr); err != nil {
		return pre, err
	}
	if hdr.Magic != tokenPreambleMagic {
		return pre, fmt.Errorf("bad magic %#x", hdr.Magic)
	}
	name := make([]byte, hdr.NameLen)
	var count uint16
	if _, err := io.ReadFull(r, name); err != nil {
		return pre, err
	}
	if err := binary.Read(r, binary.BigEndian, &count); err != nil {
		return pre, err
	}
	if count == 0 || count > maxLinkUnits {
		return pre, fmt.Errorf("%d units on one link", count)
	}
	units := make([]uint32, count)
	if err := binary.Read(r, binary.BigEndian, units); err != nil {
		return pre, err
	}
	pre = TokenPreamble{Name: string(name), Epoch: hdr.Epoch, Units: make([]int, count)}
	for i, u := range units {
		pre.Units[i] = int(u)
	}
	return pre, nil
}
