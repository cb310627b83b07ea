// Package wire was the protocol of the retired distributed DMine. No
// package imports it; it stays, with its tests, until the next deletion
// step (ROADMAP) removes it. It defines length-prefixed frames,
// in the one protocol version both ends must speak, carrying the BSP
// superstep traffic between the mining coordinator and its remote workers —
// job setup (symbols, options and the worker's fragment, inline), per-round
// frontier hand-offs, the workers' <R, conf> message streams, and job
// teardown.
//
// Everything on the wire is structural: a candidate GPAR travels as its
// (parent ruleID, extension) pair plus three flat center lanes of global
// node IDs, exactly the shape the in-process engine passes between its
// phases, so the coordinator's deterministic assembly reduce consumes
// remote and local messages identically. A frame is [u32 length][u8 type]
// [payload] with a configurable length guard on the read side; a payload is
// one encoding/json value (Send), decoded strictly by Decode, and a
// fragment rides in it as the bytes partition.Fragment.AppendBinary makes.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
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
	Version = 7
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
// payloads — including a value out of its range, such as a negative node ID.
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

// Send writes v as one frame of type typ, its JSON encoding the payload; a
// nil v sends the empty payload of a Finish or Cancel frame.
func Send(w io.Writer, typ byte, v any) error {
	var payload []byte
	if v != nil {
		var err error
		if payload, err = json.Marshal(v); err != nil {
			return errorf("encoding %T: %v", v, err)
		}
	}
	return WriteFrame(w, typ, payload)
}

// Payload is the pointer type of a frame's payload: JobSetup, SetupAck,
// Round, Messages or ErrorFrame.
type Payload[T any] interface {
	*T
	check() error // the range checks JSON's types do not make
}

// Decode parses a frame payload into a new T: exactly one JSON value, with
// no field T lacks and nothing but white space after it, whose numbers are
// in range. Every failure is a *FrameError. The result shares nothing
// with p.
func Decode[T any, P Payload[T]](p []byte) (*T, error) {
	v := new(T)
	dec := json.NewDecoder(bytes.NewReader(p))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return nil, errorf("%T payload: %v", v, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errorf("%T payload: data after the JSON value", v)
	}
	if err := P(v).check(); err != nil {
		return nil, err
	}
	return v, nil
}
