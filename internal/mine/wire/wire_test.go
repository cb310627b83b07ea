package wire

import (
	"bytes"
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

	const golden = "GPWK\x07"
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

// encode is v's payload as Send frames it.
func encode(t testing.TB, v any) []byte {
	t.Helper()
	var frame bytes.Buffer
	if err := Send(&frame, 0, v); err != nil {
		t.Fatal(err)
	}
	return frame.Bytes()[5:]
}

// roundTrip encodes want, decodes the bytes, and asserts deep equality.
func roundTrip[T any, P Payload[T]](t *testing.T, want *T) {
	t.Helper()
	b := encode(t, want)
	got, err := Decode[T, P](b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Every prefix truncation must fail cleanly with a *FrameError.
	for i := 0; i < len(b); i++ {
		if _, err := Decode[T, P](b[:i]); err == nil {
			t.Fatalf("decode of %d/%d-byte truncation succeeded", i, len(b))
		} else if _, ok := err.(*FrameError); !ok {
			t.Fatalf("truncation error type %T, want *FrameError", err)
		}
	}
	// So must data after the value.
	if _, err := Decode[T, P](append(b, '0')); err == nil {
		t.Fatal("decode with trailing data succeeded")
	}
}

// fullSetup populates every JobSetup field. One symbol is not UTF-8: it
// must come back byte for byte.
func fullSetup() *JobSetup {
	return &JobSetup{
		JobID:     1<<60 + 17,
		Worker:    3,
		D:         2,
		EmbedCap:  64,
		XLabel:    4,
		EdgeLabel: 0,
		YLabel:    graph.NoLabel,
		Symbols:   [][]byte{[]byte("person"), {}, []byte("likes"), []byte("pa\xffge")},
		Fragment:  []byte("GPFRfragmentbytes"),
	}
}

func TestJobSetupRoundTrip(t *testing.T) {
	roundTrip(t, fullSetup())

	// Minimal setup: no symbols, no fragment.
	roundTrip(t, &JobSetup{})
}

// TestJobSetupGoldenFrame pins the bytes of one fully-populated JobSetup
// frame, so a layout change that forgets to bump Version fails here. The
// bytes are what version 7 writes: the frame header, then the JSON payload
// with the symbols and the fragment in base64.
func TestJobSetupGoldenFrame(t *testing.T) {
	var frame bytes.Buffer
	if err := Send(&frame, TypeJobSetup, fullSetup()); err != nil {
		t.Fatal(err)
	}
	const golden = "\x00\x00\x00\xb7\x01" + // length, TypeJobSetup
		`{"JobID":1152921504606846993,"Worker":3,"D":2,"EmbedCap":64,` +
		`"XLabel":4,"EdgeLabel":0,"YLabel":0,` +
		`"Symbols":["cGVyc29u","","bGlrZXM=","cGH/Z2U="],` +
		`"Fragment":"R1BGUmZyYWdtZW50Ynl0ZXM="}`
	if got := frame.String(); got != golden {
		t.Fatalf("JobSetup frame bytes changed (bump Version with the layout):\n got %q\nwant %q", got, golden)
	}
}

func TestSetupAckRoundTrip(t *testing.T) {
	roundTrip(t, &SetupAck{JobID: 9, NPq: 12345, NPqbar: 0})
	roundTrip(t, &SetupAck{})
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
	roundTrip(t, rd)
	roundTrip(t, &Round{Round: 1})
}

func TestMessagesRoundTrip(t *testing.T) {
	exts := extensions()
	ls := lanes()
	ms := &Messages{Round: 2, Ops: 5, Capped: 3}
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
	roundTrip(t, ms)

	// The all-lanes-empty message exercises the empty lanes.
	roundTrip(t, &Messages{Round: 1, Ops: 1 << 40, Capped: 1 << 33, Msgs: []Msg{{Parent: 0}}})
	roundTrip(t, &Messages{Round: 3})
}

// TestMessagesGoldenFrame pins the bytes of one Messages frame, the reply
// that carries every superstep's payload: the version-7 JSON of the two
// messages version 6 pinned, the first with every lane set, the second with
// two lanes empty.
func TestMessagesGoldenFrame(t *testing.T) {
	ms := &Messages{Round: 2, Ops: 1234, Capped: 5, Msgs: []Msg{
		{Parent: 0, Ext: pattern.Extension{Src: 0, Outgoing: true, EdgeLabel: 3, NewLabel: 7, Close: pattern.NoNode},
			QCenters: []graph.NodeID{1, 2, 300}, RSet: []graph.NodeID{1, 300}, QqbCenters: []graph.NodeID{2}},
		{Parent: 9, Ext: pattern.Extension{Src: 2, AsY: true, EdgeLabel: 1, NewLabel: 4, Close: 1},
			QCenters: []graph.NodeID{70000}},
	}}
	var frame bytes.Buffer
	if err := Send(&frame, TypeMessages, ms); err != nil {
		t.Fatal(err)
	}
	const golden = "\x00\x00\x01\x4e\x04" + // length, TypeMessages
		`{"Round":2,"Ops":1234,"Capped":5,"Msgs":[` +
		`{"Parent":0,"Ext":{"Src":0,"Outgoing":true,"EdgeLabel":3,"NewLabel":7,"Close":-1,"AsY":false},` +
		`"QCenters":[1,2,300],"RSet":[1,300],"QqbCenters":[2]},` +
		`{"Parent":9,"Ext":{"Src":2,"Outgoing":false,"EdgeLabel":1,"NewLabel":4,"Close":1,"AsY":true},` +
		`"QCenters":[70000],"RSet":null,"QqbCenters":null}]}`
	if got := frame.String(); got != golden {
		t.Fatalf("Messages frame bytes changed (bump Version with the layout):\n got %q\nwant %q", got, golden)
	}
}

func TestErrorFrameRoundTrip(t *testing.T) {
	roundTrip(t, &ErrorFrame{Msg: "worker 2: fragment decode failed"})
	roundTrip(t, &ErrorFrame{})
}

// decodeErr is Decode's error on p.
func decodeErr[T any, P Payload[T]](p string) error {
	_, err := Decode[T, P]([]byte(p))
	return err
}

// TestDecodeRefusesNegatives: JSON carries signs the varint codec could
// not, so a negative index, count, round or node ID is a *FrameError.
func TestDecodeRefusesNegatives(t *testing.T) {
	for _, tc := range []struct {
		dec func(string) error
		p   string
	}{
		{decodeErr[JobSetup], `{"Worker":-1}`},
		{decodeErr[JobSetup], `{"D":-2}`},
		{decodeErr[JobSetup], `{"EmbedCap":-3}`},
		{decodeErr[SetupAck], `{"NPqbar":-1}`},
		{decodeErr[Round], `{"Round":-1}`},
		{decodeErr[Messages], `{"Ops":-5}`},
		{decodeErr[Messages], `{"Msgs":[{"RSet":[1,-2]}]}`},
		{decodeErr[Messages], `{"Msgs":[{"QqbCenters":[-7]}]}`},
	} {
		var fe *FrameError
		if err := tc.dec(tc.p); !errors.As(err, &fe) {
			t.Errorf("%s: error %T (%v), want *FrameError", tc.p, err, err)
		}
	}
}

// bigLane is a Round or Messages payload whose first entry's first lane
// holds n IDs and ends in last.
func bigLane(msgs bool, n int, last string) []byte {
	var b bytes.Buffer
	if msgs {
		b.WriteString(`{"Round":1,"Ops":0,"Capped":0,"Msgs":[{"Parent":0,"QCenters":[`)
	} else {
		b.WriteString(`{"Round":1,"Frontier":[{"ID":1,"Parent":0,"QCenters":[`)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d,", i)
	}
	b.WriteString(last)
	return b.Bytes()
}

// TestDecodeLaneCountBoundsAllocation: a lane cut off before its end, or
// holding an ID past int32 or below 0, is a *FrameError, and decoding it
// allocates in proportion to the payload (about 6× here, the decoder's copy
// of the input plus the lane's growth), never to a count read from it —
// JSON carries none.
func TestDecodeLaneCountBoundsAllocation(t *testing.T) {
	const ids = 1 << 16
	for _, msgs := range []bool{false, true} {
		dec := func(b []byte) error { _, err := Decode[Round](b); return err }
		if msgs {
			dec = func(b []byte) error { _, err := Decode[Messages](b); return err }
		}
		for _, end := range []string{"7", "2147483648]}]}", "-1]}]}"} {
			p := bigLane(msgs, ids, end)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := dec(p)
			runtime.ReadMemStats(&after)
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Errorf("messages=%v, lane ending %q: error %T (%v), want *FrameError", msgs, end, err, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(p)) {
				t.Errorf("messages=%v, lane ending %q: decoding %d bytes allocated %d", msgs, end, len(p), grew)
			}
		}
	}
}

// FuzzDecode throws arbitrary bytes at every frame type's decoder. A
// decoder never panics and fails only with a *FrameError, and whatever it
// accepts re-encodes to a payload that decodes to the same value and
// encodes to the same bytes again.
func FuzzDecode(f *testing.F) {
	for _, seed := range []any{
		nil,
		fullSetup(),
		&SetupAck{JobID: 9, NPq: 12, NPqbar: 3},
		&Round{Round: 1, Frontier: []FrontierEntry{{ID: 1, Ext: extensions()[2], QCenters: []graph.NodeID{4}}}},
		&Messages{Round: 2, Ops: 7, Msgs: []Msg{{Parent: 1, Ext: extensions()[1], QCenters: []graph.NodeID{3, 9}}}},
		&ErrorFrame{Msg: "boom"},
		bigLane(false, 3, "2147483648]}]}"),
	} {
		if p, ok := seed.([]byte); ok {
			f.Add(p)
		} else {
			f.Add(encode(f, seed))
		}
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		checkDecode[JobSetup](t, p)
		checkDecode[SetupAck](t, p)
		checkDecode[Round](t, p)
		checkDecode[Messages](t, p)
		checkDecode[ErrorFrame](t, p)
	})
}

// checkDecode is FuzzDecode's contract for one frame type.
func checkDecode[T any, P Payload[T]](t *testing.T, p []byte) {
	t.Helper()
	v, err := Decode[T, P](p)
	if err != nil {
		var fe *FrameError
		if !errors.As(err, &fe) {
			t.Fatalf("decoder returned %T (%v), want *FrameError", err, err)
		}
		return
	}
	b := encode(t, v)
	again, err := Decode[T, P](b)
	if err != nil {
		t.Fatalf("re-encoded %T fails to decode: %v", v, err)
	}
	if !reflect.DeepEqual(again, v) {
		t.Fatalf("decode(encode(decode(p))) != decode(p):\n got %+v\nwant %+v", again, v)
	}
	if b2 := encode(t, again); !bytes.Equal(b2, b) {
		t.Fatalf("encoding is not stable:\n got %s\nwant %s", b2, b)
	}
}
