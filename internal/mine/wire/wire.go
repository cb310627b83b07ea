// Package wire is the binary protocol of distributed DMine: length-prefixed
// frames, in the one protocol version both ends must speak, carrying the BSP
// superstep traffic between the mining coordinator and its remote workers —
// job setup (symbols, options and the worker's fragment, inline), per-round
// frontier hand-offs, the workers' <R, conf> message streams, and job
// teardown.
//
// Everything on the wire is structural: a candidate GPAR travels as its
// (parent ruleID, extension) pair plus three flat center lanes of global
// node IDs, exactly the shape the in-process engine passes between its
// phases, so the coordinator's deterministic assembly reduce consumes
// remote and local messages identically. Integers are unsigned varints
// (signed varints where a sentinel -1 is legal); frames are [u32 length]
// [u8 type][payload] with a configurable length guard on the read side.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Protocol identity. Coordinator and worker are built from the same commit,
// so there is one version and no negotiation: each side sends Magic plus its
// Version byte once per connection and accepts only the same byte back. Any
// change to the bytes of any frame bumps Version (the golden-bytes tests
// fail otherwise).
const (
	// Magic opens the handshake: "GPWK" followed by the version byte.
	Magic = "GPWK"
	// Version is the protocol version this package speaks.
	Version = 6
)

// Frame types.
const (
	// TypeJobSetup: coordinator → worker. Everything one worker needs for a
	// mining job: symbols, predicate, options, its fragment.
	TypeJobSetup byte = 1
	// TypeSetupAck: worker → coordinator. Round-0 classification counts.
	TypeSetupAck byte = 2
	// TypeRound: coordinator → worker. One superstep's frontier; the worker
	// answers with TypeMessages.
	TypeRound byte = 3
	// TypeMessages: worker → coordinator. The superstep's candidate
	// messages plus the worker's cumulative op count.
	TypeMessages byte = 4
	// TypeFinish: coordinator → worker, ending the job; the worker echoes
	// it and awaits the next TypeJobSetup on the same connection.
	TypeFinish byte = 5
	// TypeError: either direction. A typed failure; the job is dead.
	TypeError byte = 6
	// TypeCancel: coordinator → worker. The in-flight job is abandoned; the
	// worker drops its runtime and awaits the next TypeJobSetup on the same
	// connection. No reply — the coordinator has already stopped listening
	// for this job, and the empty-payload frame exists only so the worker
	// can release resources promptly instead of holding them until its read
	// deadline.
	TypeCancel byte = 10
)

// DefaultMaxFrame bounds how large a frame the read side accepts by
// default: large enough for any realistic fragment or message batch, small
// enough that a corrupt length prefix cannot OOM the process.
const DefaultMaxFrame = 1 << 28 // 256 MiB

// FrameError is the typed error for every protocol-level failure: bad
// magic, version mismatch, oversized or truncated frames, and malformed
// payloads.
type FrameError struct{ Msg string }

func (e *FrameError) Error() string { return "wire: " + e.Msg }

func errorf(format string, args ...any) error {
	return &FrameError{Msg: fmt.Sprintf(format, args...)}
}

// Handshake runs one side of the connection handshake. The dialer sends
// its hello first; the answerer replies with its own once it has read a
// well-formed one — also to a peer of another version, so both ends fail
// with an error naming both versions.
func Handshake(rw io.ReadWriter, dialer bool) error {
	var hello, hs [len(Magic) + 1]byte
	copy(hello[:], Magic)
	hello[len(Magic)] = Version
	if dialer {
		if _, err := rw.Write(hello[:]); err != nil {
			return errorf("handshake: %v", err)
		}
	}
	if _, err := io.ReadFull(rw, hs[:]); err != nil {
		return errorf("handshake: %v", err)
	}
	if string(hs[:len(Magic)]) != Magic {
		return errorf("handshake: bad magic %q", hs[:len(Magic)])
	}
	if !dialer {
		if _, err := rw.Write(hello[:]); err != nil {
			return errorf("handshake: %v", err)
		}
	}
	if v := hs[len(Magic)]; v != Version {
		return errorf("handshake: peer speaks version %d, this side speaks version %d", v, Version)
	}
	return nil
}

// WriteFrame writes one [u32 length][u8 type][payload] frame. The length
// covers the type byte plus the payload.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame, reusing buf for the payload when it is large
// enough. maxFrame guards the length prefix (0 means DefaultMaxFrame); a
// frame beyond it is a protocol error, not an allocation.
func ReadFrame(r io.Reader, buf []byte, maxFrame int) (typ byte, payload, newBuf []byte, err error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, buf, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n == 0 {
		return 0, nil, buf, errorf("zero-length frame")
	}
	if int64(n) > int64(maxFrame) {
		return 0, nil, buf, errorf("frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	typ = hdr[4]
	body := int(n) - 1
	if cap(buf) < body {
		buf = make([]byte, body)
	}
	payload = buf[:body]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, buf, errorf("truncated frame: %v", err)
	}
	return typ, payload, buf, nil
}

// ---------------------------------------------------------------------------
// Varint primitives shared by the payload codecs.

// reader decodes varints with a sticky error, so payload decoders read
// linearly and check once at the end.
type reader struct {
	buf []byte
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = errorf(format, args...)
	}
}

func (r *reader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, k := binary.Uvarint(r.buf)
	if k <= 0 {
		r.fail("truncated payload reading %s", what)
		return 0
	}
	r.buf = r.buf[k:]
	return v
}

func (r *reader) varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, k := binary.Varint(r.buf)
	if k <= 0 {
		r.fail("truncated payload reading %s", what)
		return 0
	}
	r.buf = r.buf[k:]
	return v
}

// intf decodes a uvarint that must fit a non-negative int32-sized int
// (node IDs, labels, counts).
func (r *reader) intf(what string) int {
	v := r.uvarint(what)
	if r.err == nil && v > uint64(int32(^uint32(0)>>1)) {
		r.fail("%s %d overflows int32", what, v)
		return 0
	}
	return int(v)
}

func (r *reader) bytes(what string) []byte {
	n := r.intf(what)
	if r.err != nil {
		return nil
	}
	if n > len(r.buf) {
		r.fail("truncated payload reading %s (%d of %d bytes)", what, len(r.buf), n)
		return nil
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out
}

func (r *reader) string(what string) string { return string(r.bytes(what)) }

// bytesCopy is bytes detached from the frame buffer, which the next read
// overwrites; an empty field decodes as nil.
func (r *reader) bytesCopy(what string) []byte {
	return append([]byte(nil), r.bytes(what)...)
}

// done asserts the payload was fully consumed.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.buf) != 0 {
		return errorf("%d trailing bytes after payload", len(r.buf))
	}
	return nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytesField(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}
