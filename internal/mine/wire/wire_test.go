package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
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

	const golden = "GPWK\x05"
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
		{"older version", "GPWK\x04", true},
		{"newer version", "GPWK\x06", true},
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
		FragHash:  HashFragment([]byte("GPFRfragmentbytes")),
	}
}

func TestJobSetupRoundTrip(t *testing.T) {
	s := fullSetup()
	roundTrip(t, s.Append, DecodeJobSetup, s)

	// The shape the coordinator's connection sends: hash, no body.
	hashOnly := fullSetup()
	hashOnly.Fragment = nil
	roundTrip(t, hashOnly.Append, DecodeJobSetup, hashOnly)

	// Minimal setup: no symbols, only the mandatory hash.
	min := &JobSetup{FragHash: HashFragment(nil)}
	roundTrip(t, min.Append, DecodeJobSetup, min)

	// A missing or wrong-sized hash is a typed error, not a short hash.
	for _, hash := range [][]byte{nil, []byte("short"), bytes.Repeat([]byte{1}, HashSize+1)} {
		bad := fullSetup()
		bad.FragHash = hash
		if _, err := DecodeJobSetup(bad.Append(nil)); err == nil {
			t.Fatalf("%d-byte fragment hash accepted", len(hash))
		} else if _, ok := err.(*FrameError); !ok {
			t.Fatalf("%d-byte hash error type %T, want *FrameError", len(hash), err)
		}
	}
}

// TestJobSetupGoldenFrame pins the bytes of one fully-populated JobSetup
// frame, so a layout change that forgets to bump Version fails here. The
// bytes are the version-4 golden frame minus its eccCap and centerEcc fields
// (and the six bytes of length that counted them).
func TestJobSetupGoldenFrame(t *testing.T) {
	var frame bytes.Buffer
	if err := WriteFrame(&frame, TypeJobSetup, fullSetup().Append(nil)); err != nil {
		t.Fatal(err)
	}
	const golden = "0000005701" + // length, TypeJobSetup
		"918080808080808010030240" + // jobID, worker, d, embedCap
		"080000" + // xLabel, edgeLabel, yLabel (zigzag)
		"0406706572736f6e00056c696b65730470616765" + // symbols
		"1147504652667261676d656e746279746573" + // fragment
		"20ff1baf4772dd8e6c1ecce6e5f281c2ebd26af7a932116a84515820c941ae324c" // fragHash
	if got := hex.EncodeToString(frame.Bytes()); got != golden {
		t.Fatalf("JobSetup frame bytes changed (bump Version with the layout):\n got %s\nwant %s", got, golden)
	}
}

func TestFragNeedRoundTrip(t *testing.T) {
	f := &FragNeed{Hash: HashFragment([]byte("some fragment"))}
	roundTrip(t, f.Append, DecodeFragNeed, f)

	// Hashes must be exactly HashSize bytes.
	for _, n := range []int{0, 1, HashSize - 1, HashSize + 1} {
		bad := &FragNeed{Hash: bytes.Repeat([]byte{0xab}, n)}
		if _, err := DecodeFragNeed(bad.Append(nil)); err == nil {
			t.Fatalf("%d-byte hash accepted", n)
		} else if _, ok := err.(*FrameError); !ok {
			t.Fatalf("%d-byte hash error type %T, want *FrameError", n, err)
		}
	}
}

func TestFragHaveRoundTrip(t *testing.T) {
	body := []byte("GPFRfragmentbody")
	f := &FragHave{Hash: HashFragment(body), Fragment: body}
	roundTrip(t, f.Append, DecodeFragHave, f)

	empty := &FragHave{Hash: HashFragment(nil)}
	roundTrip(t, empty.Append, DecodeFragHave, empty)

	bad := &FragHave{Hash: []byte{1, 2, 3}, Fragment: body}
	if _, err := DecodeFragHave(bad.Append(nil)); err == nil {
		t.Fatal("undersized hash accepted")
	} else if _, ok := err.(*FrameError); !ok {
		t.Fatalf("undersized hash error type %T, want *FrameError", err)
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

// TestDecodeFuzzish throws random bytes at every payload decoder: errors are
// fine, panics are not.
func TestDecodeFuzzish(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	decoders := []func([]byte) error{
		func(b []byte) error { _, err := DecodeJobSetup(b); return err },
		func(b []byte) error { _, err := DecodeSetupAck(b); return err },
		func(b []byte) error { _, err := DecodeRound(b); return err },
		func(b []byte) error { _, err := DecodeMessages(b); return err },
		func(b []byte) error { _, err := DecodeError(b); return err },
		func(b []byte) error { _, err := DecodeFragNeed(b); return err },
		func(b []byte) error { _, err := DecodeFragHave(b); return err },
	}
	for trial := 0; trial < 2000; trial++ {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		for _, dec := range decoders {
			if err := dec(b); err != nil {
				if _, ok := err.(*FrameError); !ok {
					t.Fatalf("decoder returned %T (%v), want *FrameError", err, err)
				}
			}
		}
	}
}
