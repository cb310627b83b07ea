package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"gpar/internal/graph"
	"gpar/internal/pattern"
)

// rw glues independent reader and writer halves into an io.ReadWriter so
// one handshake side can run against canned peer bytes.
type rw struct {
	io.Reader
	io.Writer
}

// TestHandshake runs both sides over an in-memory pipe and pins the hello
// each writes: a change to these bytes is a new protocol version.
func TestHandshake(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	srvErr := make(chan error, 1)
	go func() { srvErr <- Handshake(srv, false) }()
	if err := Handshake(cli, true); err != nil {
		t.Fatalf("dialer: %v", err)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("answerer: %v", err)
	}

	const golden = "GPWK\x06"
	for _, dialer := range []bool{true, false} {
		var sent bytes.Buffer
		if err := Handshake(&rw{strings.NewReader(golden), &sent}, dialer); err != nil {
			t.Fatalf("dialer=%v against the golden hello: %v", dialer, err)
		}
		if sent.String() != golden {
			t.Errorf("dialer=%v wrote hello %q, want %q", dialer, sent.String(), golden)
		}
	}
}

func TestHandshakeErrors(t *testing.T) {
	for _, tc := range []struct {
		name, data string
		// answers: the answerer replies before failing, so the dialer can
		// name both versions too.
		answers bool
	}{
		{"peer closed", "", false},
		{"short", "GP", false},
		{"bad magic", "NOPE\x04", false},
		{"version 0", "GPWK\x00", true},
		{"older version", Magic + string([]byte{Version - 1}), true},
		{"newer version", Magic + string([]byte{Version + 1}), true},
	} {
		for _, dialer := range []bool{true, false} {
			var sent bytes.Buffer
			err := Handshake(&rw{strings.NewReader(tc.data), &sent}, dialer)
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Errorf("%s, dialer=%v: error %T (%v), want *FrameError", tc.name, dialer, err, err)
				continue
			}
			if tc.answers {
				peer := fmt.Sprintf("version %d", tc.data[len(Magic)])
				own := fmt.Sprintf("version %d", Version)
				if !strings.Contains(fe.Msg, peer) || !strings.Contains(fe.Msg, own) {
					t.Errorf("%s, dialer=%v: %q does not name both versions", tc.name, dialer, fe.Msg)
				}
			}
			if wrote := sent.Len() > 0; wrote != (dialer || tc.answers) {
				t.Errorf("%s, dialer=%v: wrote a hello = %v", tc.name, dialer, wrote)
			}
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, {0xaa}, bytes.Repeat([]byte{7}, 4096)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, byte(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	for i, p := range payloads {
		typ, got, newBuf, err := ReadFrame(&buf, scratch, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		scratch = newBuf
		if typ != byte(i+1) {
			t.Fatalf("frame %d: type %d, want %d", i, typ, i+1)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload %x, want %x", i, got, p)
		}
	}
	if _, _, _, err := ReadFrame(&buf, scratch, 0); err != io.EOF {
		t.Fatalf("read past last frame: %v, want io.EOF", err)
	}
}

func TestFrameErrors(t *testing.T) {
	// A frame larger than the limit must be rejected without allocation.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypeRound, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadFrame(&buf, nil, 50); err == nil {
		t.Fatal("oversized frame accepted")
	} else if _, ok := err.(*FrameError); !ok {
		t.Fatalf("oversized frame error type %T, want *FrameError", err)
	}

	// Zero-length frames are a protocol error (the type byte is mandatory).
	if _, _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0}), nil, 0); err == nil {
		t.Fatal("zero-length frame accepted")
	}

	// Truncated body.
	trunc := []byte{0, 0, 0, 5, TypeRound, 1, 2}
	if _, _, _, err := ReadFrame(bytes.NewReader(trunc), nil, 0); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// extensions covers the extension shape space: open/closing, both
// directions, Y-flagged, sentinel labels, and max-size ordinals.
func extensions() []pattern.Extension {
	return []pattern.Extension{
		{},
		{Src: 0, Outgoing: true, EdgeLabel: 3, NewLabel: 7, Close: pattern.NoNode},
		{Src: 2, Outgoing: false, EdgeLabel: 0, NewLabel: 0, Close: 1},
		{Src: 1, Outgoing: true, EdgeLabel: 5, NewLabel: 2, Close: pattern.NoNode, AsY: true},
		{Src: math.MaxInt32, Outgoing: true, EdgeLabel: math.MaxInt32, NewLabel: math.MaxInt32, Close: math.MaxInt32},
		{Src: 0, EdgeLabel: graph.NoLabel, NewLabel: graph.NoLabel, Close: pattern.NoNode},
	}
}

func lanes() [][]graph.NodeID {
	return [][]graph.NodeID{
		nil,
		{},
		{0},
		{1, 5, 9, 1 << 30},
		func() []graph.NodeID {
			l := make([]graph.NodeID, 500)
			for i := range l {
				l[i] = graph.NodeID(i * 3)
			}
			return l
		}(),
	}
}

// roundTrip encodes with enc, decodes the bytes with dec, and asserts deep
// equality. Empty non-nil slices normalize to nil on decode, so the caller
// passes want with that normalization applied.
func roundTrip[T any](t *testing.T, enc func([]byte) []byte, dec func([]byte) (*T, error), want *T) {
	t.Helper()
	b := enc(nil)
	got, err := dec(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Every prefix truncation must fail cleanly with a *FrameError.
	for i := 0; i < len(b); i++ {
		if _, err := dec(b[:i]); err == nil {
			t.Fatalf("decode of %d/%d-byte truncation succeeded", i, len(b))
		} else if _, ok := err.(*FrameError); !ok {
			t.Fatalf("truncation error type %T, want *FrameError", err)
		}
	}
	// Trailing garbage must be rejected too.
	if _, err := dec(append(b, 0)); err == nil {
		t.Fatal("decode with trailing byte succeeded")
	}
}

// fullSetup populates every JobSetup field.
func fullSetup() *JobSetup {
	return &JobSetup{
		JobID:     1<<60 + 17,
		Worker:    3,
		D:         2,
		EmbedCap:  64,
		XLabel:    4,
		EdgeLabel: 0,
		YLabel:    graph.NoLabel,
		Symbols:   []string{"person", "", "likes", "page"},
		Fragment:  []byte("GPFRfragmentbytes"),
	}
}

func TestJobSetupRoundTrip(t *testing.T) {
	s := fullSetup()
	roundTrip(t, s.Append, DecodeJobSetup, s)

	// Minimal setup: no symbols, an empty fragment.
	roundTrip(t, (&JobSetup{}).Append, DecodeJobSetup, &JobSetup{})
}

// TestJobSetupGoldenFrame pins the bytes of one fully-populated JobSetup
// frame, so a layout change that forgets to bump Version fails here. The
// bytes are the version-5 golden frame minus its 33-byte fragment-hash field
// (and the length that counted it).
func TestJobSetupGoldenFrame(t *testing.T) {
	var frame bytes.Buffer
	if err := WriteFrame(&frame, TypeJobSetup, fullSetup().Append(nil)); err != nil {
		t.Fatal(err)
	}
	const golden = "0000003601" + // length, TypeJobSetup
		"918080808080808010030240" + // jobID, worker, d, embedCap
		"080000" + // xLabel, edgeLabel, yLabel (zigzag)
		"0406706572736f6e00056c696b65730470616765" + // symbols
		"1147504652667261676d656e746279746573" // fragment
	if got := hex.EncodeToString(frame.Bytes()); got != golden {
		t.Fatalf("JobSetup frame bytes changed (bump Version with the layout):\n got %s\nwant %s", got, golden)
	}
}

func TestSetupAckRoundTrip(t *testing.T) {
	a := &SetupAck{JobID: 9, NPq: 12345, NPqbar: 0}
	roundTrip(t, a.Append, DecodeSetupAck, a)
	zero := &SetupAck{}
	roundTrip(t, zero.Append, DecodeSetupAck, zero)
}

func TestRoundRoundTrip(t *testing.T) {
	exts := extensions()
	ls := lanes()
	rd := &Round{Round: 4}
	for i, e := range exts {
		fe := FrontierEntry{ID: uint32(i), Parent: uint32(i / 2), Ext: e}
		if l := ls[i%len(ls)]; len(l) > 0 {
			fe.QCenters = l
		}
		rd.Frontier = append(rd.Frontier, fe)
	}
	roundTrip(t, rd.Append, DecodeRound, rd)

	empty := &Round{Round: 1}
	roundTrip(t, empty.Append, DecodeRound, empty)
}

func TestMessagesRoundTrip(t *testing.T) {
	exts := extensions()
	ls := lanes()
	ms := &Messages{Round: 2, Ops: -5, Capped: 3}
	for i, e := range exts {
		m := Msg{Parent: uint32(i * 7), Ext: e}
		pick := func(k int) []graph.NodeID {
			if l := ls[(i+k)%len(ls)]; len(l) > 0 {
				return l
			}
			return nil
		}
		m.QCenters, m.RSet, m.QqbCenters = pick(0), pick(1), pick(2)
		ms.Msgs = append(ms.Msgs, m)
	}
	roundTrip(t, ms.Append, DecodeMessages, ms)

	// The all-lanes-empty message exercises the zero-length lane encoding.
	empty := &Messages{Round: 1, Ops: 1 << 40, Capped: 1 << 33, Msgs: []Msg{{Parent: 0}}}
	roundTrip(t, empty.Append, DecodeMessages, empty)

	none := &Messages{Round: 3}
	roundTrip(t, none.Append, DecodeMessages, none)
}

// TestMessagesGoldenFrame pins the bytes of one Messages frame, the reply
// that carries every superstep's payload. The bytes are what version 4 wrote
// for these two messages (recorded at 65d882b, the first with a one-center
// usupp lane and flag set, the second with both empty) minus exactly those
// two fields per message and the five bytes of length that counted them.
func TestMessagesGoldenFrame(t *testing.T) {
	ms := &Messages{Round: 2, Ops: 1234, Capped: 5, Msgs: []Msg{
		{Parent: 0, Ext: pattern.Extension{Src: 0, Outgoing: true, EdgeLabel: 3, NewLabel: 7, Close: pattern.NoNode},
			QCenters: []graph.NodeID{1, 2, 300}, RSet: []graph.NodeID{1, 300}, QqbCenters: []graph.NodeID{2}},
		{Parent: 9, Ext: pattern.Extension{Src: 2, AsY: true, EdgeLabel: 1, NewLabel: 4, Close: 1},
			QCenters: []graph.NodeID{70000}},
	}}
	var frame bytes.Buffer
	if err := WriteFrame(&frame, TypeMessages, ms.Append(nil)); err != nil {
		t.Fatal(err)
	}
	const golden = "0000002304" + // length, TypeMessages
		"02a4130a02" + // round, ops, capped (zigzag), message count
		"00" + "0001060e01" + // parent, extension
		"030102ac02" + "0201ac02" + "0102" + // qCenters, rSet, qqbCenters
		"09" + "0402020802" + // parent, extension
		"01f0a204" + "00" + "00" // qCenters, rSet, qqbCenters
	if got := hex.EncodeToString(frame.Bytes()); got != golden {
		t.Fatalf("Messages frame bytes changed (bump Version with the layout):\n got %s\nwant %s", got, golden)
	}
}

func TestErrorFrameRoundTrip(t *testing.T) {
	e := &ErrorFrame{Msg: "worker 2: fragment decode failed"}
	roundTrip(t, e.Append, DecodeError, e)
	empty := &ErrorFrame{}
	roundTrip(t, empty.Append, DecodeError, empty)
}

// hugeLane is a payload prefix up to a lane count: one entry whose first
// lane claims n IDs and then ends. The count is read straight off the wire.
func hugeLane(prefix []byte, n int) []byte {
	p := append([]byte(nil), prefix...)
	p = appendExtension(p, pattern.Extension{Close: pattern.NoNode})
	return binary.AppendUvarint(p, uint64(n))
}

// TestDecodeLaneCountBoundsAllocation: a lane count larger than the bytes
// left in the payload is a *FrameError before anything is allocated for it.
// Each payload is a dozen bytes; a lane sized by its count instead would
// take 64 MiB here, and 8 GiB at the int32 maximum.
func TestDecodeLaneCountBoundsAllocation(t *testing.T) {
	const claim = 1 << 24
	for _, tc := range []struct {
		name string
		dec  func([]byte) error
		p    []byte
	}{
		// round 1, one frontier entry with id 1 and parent 0.
		{"Round qCenters", func(b []byte) error { _, err := DecodeRound(b); return err },
			hugeLane([]byte{1, 1, 1, 0}, claim)},
		// round 1, ops 0, capped 0, one message with parent 0.
		{"Messages qCenters", func(b []byte) error { _, err := DecodeMessages(b); return err },
			hugeLane([]byte{1, 0, 0, 1, 0}, claim)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.dec(tc.p)
		runtime.ReadMemStats(&after)
		var fe *FrameError
		if !errors.As(err, &fe) {
			t.Errorf("%s (%d bytes): error %T (%v), want *FrameError", tc.name, len(tc.p), err, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s (%d bytes): decoding allocated %d bytes, want under 1 MiB", tc.name, len(tc.p), grew)
		}
	}
}

// FuzzDecode throws arbitrary bytes at every payload decoder. A decoder
// never panics and fails only with a *FrameError, and whatever it accepts
// re-encodes to bytes that decode to the same value.
func FuzzDecode(f *testing.F) {
	for _, seed := range [][]byte{
		nil,
		fullSetup().Append(nil),
		(&SetupAck{JobID: 9, NPq: 12, NPqbar: 3}).Append(nil),
		(&Round{Round: 1, Frontier: []FrontierEntry{{ID: 1, Ext: extensions()[2], QCenters: []graph.NodeID{4}}}}).Append(nil),
		(&Messages{Round: 2, Ops: 7, Msgs: []Msg{{Parent: 1, Ext: extensions()[1], QCenters: []graph.NodeID{3, 9}}}}).Append(nil),
		(&ErrorFrame{Msg: "boom"}).Append(nil),
		hugeLane([]byte{1, 1, 1, 0}, 1<<29),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		checkDecode(t, p, DecodeJobSetup)
		checkDecode(t, p, DecodeSetupAck)
		checkDecode(t, p, DecodeRound)
		checkDecode(t, p, DecodeMessages)
		checkDecode(t, p, DecodeError)
	})
}

// checkDecode is FuzzDecode's contract for one decoder.
func checkDecode[T interface{ Append([]byte) []byte }](t *testing.T, p []byte, dec func([]byte) (T, error)) {
	t.Helper()
	v, err := dec(p)
	if err != nil {
		var fe *FrameError
		if !errors.As(err, &fe) {
			t.Fatalf("decoder returned %T (%v), want *FrameError", err, err)
		}
		return
	}
	again, err := dec(v.Append(nil))
	if err != nil {
		t.Fatalf("re-encoded %T fails to decode: %v", v, err)
	}
	if !reflect.DeepEqual(again, v) {
		t.Fatalf("decode(encode(decode(p))) != decode(p):\n got %+v\nwant %+v", again, v)
	}
}
