// Package netfault injects deterministic, scripted faults into net
// connections for resilience testing. Its one user, the retired distributed
// DMine's chaos suite, is gone; no package imports it, and it stays, with
// its tests, until the next deletion step (ROADMAP) removes it. Faults: refused or delayed accepts, per-frame
// write delays and stalls, disconnects, mid-frame truncation and byte
// corruption. The wrapper understands the wire package's length-prefixed
// [u32 len][u8 type][payload] framing, so faults land on exact frame
// boundaries no matter how the wrapped endpoint batches its writes —
// "stall instead of answering the second frame" is expressible from any
// test, against any component that speaks the protocol.
//
// Faults apply to what the wrapped endpoint WRITES. Wrapping a worker
// listener (the usual arrangement) therefore injects faults into
// worker→coordinator traffic, with the unframed handshake bytes passed
// through via Script.SkipBytes; wrapping a dialed connection with WrapConn
// injects faults into the dialer's requests instead.
//
// Outcome guarantees: StallAtFrame blocks until the connection is closed
// (the peer's deadline is what unwedges the exchange — exactly the
// production shape), CloseAtFrame and TruncateAtFrame surface as read
// errors on the peer, and CorruptAtFrame in its default CorruptLength mode
// flips the top bit of the length prefix so the peer's frame-size guard
// rejects it with a typed error. CorruptPayload flips a bit mid-payload and
// is only guaranteed to surface where the protocol validates content
// (flag bytes, trailing-byte checks).
package netfault

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"
)

// CorruptMode selects what CorruptAtFrame damages.
type CorruptMode int

const (
	// CorruptLength flips the top bit of the frame's length prefix: the
	// reader's max-frame guard rejects the absurd size with a typed error.
	// This is the default because it is deterministic for every frame.
	CorruptLength CorruptMode = iota
	// CorruptPayload flips one bit in the middle of the frame body (the
	// type byte when the payload is empty). Whether the peer notices
	// depends on the payload's own validation.
	CorruptPayload
)

// Script is one connection's fault plan. The zero value is a transparent
// pass-through. Frame indexes are 1-based and count frames the wrapped
// endpoint writes, after SkipBytes of unframed preamble.
type Script struct {
	// RefuseDial closes the connection immediately on accept, before any
	// byte moves — the dialer sees a reset during its handshake.
	RefuseDial bool
	// AcceptDelay pauses the accept loop before handing the connection out.
	AcceptDelay time.Duration
	// SkipBytes is the length of the unframed preamble (the protocol
	// handshake) passed through before frame parsing starts.
	SkipBytes int
	// WriteDelay is added before each frame is forwarded.
	WriteDelay time.Duration
	// StallAtFrame blocks instead of writing frame N, until the connection
	// is closed (by the peer's deadline or the listener's teardown).
	StallAtFrame int
	// CloseAtFrame drops the connection instead of writing frame N.
	CloseAtFrame int
	// TruncateAtFrame writes only the first half of frame N, then drops the
	// connection — the peer reads a mid-frame EOF.
	TruncateAtFrame int
	// CorruptAtFrame damages frame N per CorruptKind.
	CorruptAtFrame int
	// CorruptKind selects the corruption (default CorruptLength).
	CorruptKind CorruptMode
}

// Listener wraps an inner listener, applying a per-connection Script to
// each accepted connection. Closing the Listener also closes every scripted
// connection it handed out, which unblocks any stalled writes — tests that
// close the listener in cleanup never leak a stalled goroutine.
type Listener struct {
	inner net.Listener
	// scriptFor returns the script for the i-th accepted connection
	// (0-based, counting refused ones); nil means pass-through.
	scriptFor func(i int) *Script

	mu    sync.Mutex
	n     int
	conns []*Conn
}

// Wrap returns a chaos listener over l. scriptFor picks the fault plan per
// accepted connection (by 0-based index); returning nil passes the
// connection through untouched.
func Wrap(l net.Listener, scriptFor func(i int) *Script) *Listener {
	return &Listener{inner: l, scriptFor: scriptFor}
}

// Accept implements net.Listener. Refused connections are closed
// immediately (consuming their script index) and the next connection is
// awaited.
func (l *Listener) Accept() (net.Conn, error) {
	for {
		c, err := l.inner.Accept()
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		i := l.n
		l.n++
		l.mu.Unlock()
		var s *Script
		if l.scriptFor != nil {
			s = l.scriptFor(i)
		}
		if s == nil {
			return c, nil
		}
		if s.AcceptDelay > 0 {
			time.Sleep(s.AcceptDelay)
		}
		if s.RefuseDial {
			c.Close()
			continue
		}
		fc := WrapConn(c, s)
		l.mu.Lock()
		l.conns = append(l.conns, fc)
		l.mu.Unlock()
		return fc, nil
	}
}

// Close closes the inner listener and every scripted connection, unblocking
// stalled writes.
func (l *Listener) Close() error {
	err := l.inner.Close()
	l.mu.Lock()
	conns := l.conns
	l.conns = nil
	l.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return err
}

// Addr implements net.Listener.
func (l *Listener) Addr() net.Addr { return l.inner.Addr() }

// Conn applies a Script to the bytes the wrapped endpoint writes. Reads
// pass through untouched.
type Conn struct {
	net.Conn
	script Script

	closeOnce sync.Once
	closed    chan struct{}

	mu        sync.Mutex
	skip      int     // unframed preamble bytes still to pass through
	hdr       [4]byte // partially accumulated length prefix
	hdrN      int
	frame     int // 1-based index of the frame currently being forwarded
	remaining int // body bytes (type + payload) of the current frame left
	budget    int // body bytes allowed before a truncation close (-1: all)
	corrupt   int // body offset of the byte to bit-flip (-1: none)
}

// WrapConn wraps one connection with a fault script (see Conn).
func WrapConn(c net.Conn, s *Script) *Conn {
	fc := &Conn{Conn: c, script: *s, closed: make(chan struct{})}
	fc.skip = s.SkipBytes
	fc.budget = -1
	fc.corrupt = -1
	return fc
}

// errInjected is the error the wrapped endpoint's Write observes when its
// own script killed the connection.
func errInjected(what string, frame int) error {
	return fmt.Errorf("netfault: %s at frame %d", what, frame)
}

// Close implements net.Conn; it also unblocks a stalled Write.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

func (c *Conn) isClosed() bool {
	select {
	case <-c.closed:
		return true
	default:
		return false
	}
}

// sleep pauses, abandoning the wait when the connection closes. It reports
// whether the connection is still alive.
func (c *Conn) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.closed:
		return false
	}
}

// Write implements net.Conn, parsing the write stream into frames and
// applying the script. It reports all consumed bytes as written even when a
// fault swallowed part of them — the wrapped endpoint is meant to believe
// its write succeeded until the connection dies.
func (c *Conn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	written := 0
	for len(b) > 0 {
		if c.isClosed() {
			return written, net.ErrClosed
		}
		switch {
		case c.skip > 0: // unframed preamble
			n := min(c.skip, len(b))
			k, err := c.Conn.Write(b[:n])
			written += k
			c.skip -= k
			if err != nil {
				return written, err
			}
			b = b[n:]

		case c.remaining > 0: // mid-frame body
			n := min(c.remaining, len(b))
			if c.budget >= 0 && n > c.budget {
				n = c.budget
			}
			chunk := b[:n]
			if c.corrupt >= 0 {
				if c.corrupt < n {
					chunk = append([]byte(nil), chunk...)
					chunk[c.corrupt] ^= 0x80
					c.corrupt = -1
				} else {
					c.corrupt -= n
				}
			}
			k, err := c.Conn.Write(chunk)
			written += k
			c.remaining -= k
			if c.budget >= 0 {
				c.budget -= k
			}
			if err != nil {
				return written, err
			}
			// The caller's bytes are consumed even if a truncation cut the
			// forwarded chunk short.
			written += n - k
			b = b[n:]
			if c.budget == 0 && c.remaining > 0 {
				c.Close()
				return written, errInjected("mid-frame truncation", c.frame)
			}

		default: // accumulating the next length prefix
			n := min(4-c.hdrN, len(b))
			copy(c.hdr[c.hdrN:], b[:n])
			c.hdrN += n
			written += n
			b = b[n:]
			if c.hdrN < 4 {
				continue
			}
			c.hdrN = 0
			c.frame++
			if err := c.beginFrame(); err != nil {
				return written, err
			}
		}
	}
	return written, nil
}

// beginFrame decides and applies the current frame's fate now that its
// length prefix is known, forwarding (or damaging, or withholding) the
// prefix itself.
func (c *Conn) beginFrame() error {
	f := c.frame
	length := int(binary.BigEndian.Uint32(c.hdr[:]))
	if c.script.WriteDelay > 0 && !c.sleep(c.script.WriteDelay) {
		return net.ErrClosed
	}
	if f == c.script.StallAtFrame {
		<-c.closed
		return errInjected("stall", f)
	}
	if f == c.script.CloseAtFrame {
		c.Close()
		return errInjected("disconnect", f)
	}
	hdr := c.hdr
	if f == c.script.CorruptAtFrame && c.script.CorruptKind == CorruptLength {
		hdr[0] ^= 0x80
	}
	c.budget = -1
	c.corrupt = -1
	if f == c.script.TruncateAtFrame {
		allow := (4 + length) / 2 // strictly mid-frame: every frame is ≥ 5 bytes
		if allow <= 4 {
			if _, err := c.Conn.Write(hdr[:allow]); err != nil {
				return err
			}
			c.Close()
			return errInjected("mid-frame truncation", f)
		}
		c.budget = allow - 4
	}
	if _, err := c.Conn.Write(hdr[:]); err != nil {
		return err
	}
	if f == c.script.CorruptAtFrame && c.script.CorruptKind == CorruptPayload {
		c.corrupt = 1 + (length-1)/2 // mid-payload; the type byte if empty
		if length <= 1 {
			c.corrupt = 0
		}
	}
	c.remaining = length
	return nil
}
