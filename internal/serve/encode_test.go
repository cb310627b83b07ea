package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"

	"gpar/internal/graph"
)

// identifyInput reads an IdentifyResponse's shape from fuzz bytes; a read
// past the end yields zeros.
type identifyInput struct{ in []byte }

func (z *identifyInput) take(n int) []byte {
	b := make([]byte, n)
	z.in = z.in[copy(b, z.in):]
	return b
}

func (z *identifyInput) u8() byte    { return z.take(1)[0] }
func (z *identifyInput) u32() uint32 { return binary.LittleEndian.Uint32(z.take(4)) }
func (z *identifyInput) u64() uint64 { return binary.LittleEndian.Uint64(z.take(8)) }

// ids reads a node-ID list: 0 is nil, 1 empty, 2–127 that many IDs less
// one, and from 128 up a long list of 64 IDs per step; the IDs run from a
// start by a stride, both read as raw bits, so they wrap into negatives.
func (z *identifyInput) ids() []graph.NodeID {
	n := int(z.u8())
	switch {
	case n == 0:
		return nil
	case n >= 128:
		n = (n - 127) * 64
	default:
		n--
	}
	start, stride := z.u32(), z.u32()
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(start + uint32(i)*stride)
	}
	return out
}

// identifyOf builds a response from raw bits: the generation, η and
// elapsedMs as given, then the identified list, a count, the rules (first
// byte 0: nil, else up to seven) with conf from raw float bits, and a last
// byte whose bits 0 and 1 pre-encode the identified and the nodes arrays
// with encodeIDs, as the server splices a resident set's encoding.
func identifyOf(gen, eta, elapsed uint64, in []byte) *IdentifyResponse {
	z := &identifyInput{in}
	resp := &IdentifyResponse{Generation: gen, Eta: math.Float64frombits(eta), ElapsedMs: math.Float64frombits(elapsed)}
	resp.Identified = z.ids()
	resp.Count = int(int64(z.u64()))
	if n := z.u8(); n > 0 {
		resp.Rules = make([]IdentifyRule, int(n-1)%8)
	}
	for i := range resp.Rules {
		r := &resp.Rules[i]
		r.Index = int(int64(z.u64()))
		r.Key = hex.EncodeToString(z.take(12))
		r.Conf = jsonFloat(math.Float64frombits(z.u64()))
		r.SuppR, r.SuppQ, r.Matches = int(int64(z.u64())), int(int64(z.u64())), int(int64(z.u64()))
		flags := z.u8()
		r.Applied, r.Cached, r.Coalesced = flags&1 != 0, flags&2 != 0, flags&4 != 0
		r.Nodes = z.ids()
	}
	pre := z.u8()
	if pre&1 != 0 {
		resp.identifiedJSON = encodeIDs(resp.Identified)
	}
	for i := range resp.Rules {
		if pre&2 != 0 {
			resp.Rules[i].nodesJSON = encodeIDs(resp.Rules[i].Nodes)
		}
	}
	return resp
}

// floatBits are the float64 edges the encoding must get right.
var floatBits = []uint64{
	math.Float64bits(math.NaN()), math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
	math.Float64bits(math.Copysign(0, -1)), 0, 1, // −0, +0, the least subnormal
	0x000fffffffffffff, 0x0010000000000000, // the greatest subnormal, the least normal
	math.Float64bits(1e-6), math.Float64bits(math.Nextafter(1e-6, 0)), math.Float64bits(-1e-7),
	math.Float64bits(1e21), math.Float64bits(math.Nextafter(1e21, 0)), math.Float64bits(-1e21),
	math.Float64bits(math.MaxFloat64), math.Float64bits(2.41), math.Float64bits(0.1), math.Float64bits(1.73),
}

// FuzzIdentifyEncoding checks appendIdentify against encoding/json: for
// every response, spliced arrays or not, the bytes
// json.NewEncoder(w).Encode writes. encoding/json refuses a non-finite η
// or elapsedMs, which the server never has; there appendIdentify must
// still write valid JSON.
func FuzzIdentifyEncoding(f *testing.F) {
	rule := func(conf uint64, flags byte, nodes ...byte) []byte {
		b := binary.LittleEndian.AppendUint64(nil, 7)
		b = append(b, "\x01\x23\x45\x67\x89\xab\xcd\xef\x00\xff\x10\x20"...)
		b = binary.LittleEndian.AppendUint64(b, conf)
		for _, v := range []uint64{12, 31, 31} {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return append(append(b, flags), nodes...)
	}
	list := func(n byte, start, stride uint32) []byte {
		return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32([]byte{n}, start), stride)
	}
	count := binary.LittleEndian.AppendUint64(nil, 3)
	for i, bits := range floatBits {
		// Every edge as conf, with nil, empty, short and long node lists and
		// every flag combination across the table.
		in := append(append(list(byte(i%3), 17, 67), count...), 3)
		in = append(in, rule(bits, byte(i), list(byte(i*37%256), uint32(i)<<28, 0x9e3779b9)...)...)
		in = append(in, rule(bits, byte(i+3))...)
		f.Add(uint64(i)<<60, bits, floatBits[(i+5)%len(floatBits)], in)
		// The same answer, its last rule with nodes, and the arrays spliced.
		in = append(append(in, list(byte(i*11%256), 1<<20, 3)...), byte(i%3+1))
		f.Add(uint64(i)<<60, bits, floatBits[(i+5)%len(floatBits)], in)
	}
	f.Add(uint64(math.MaxUint64), math.Float64bits(1.2), math.Float64bits(0.004), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add(uint64(0), uint64(0), uint64(0), []byte{})
	f.Fuzz(func(t *testing.T, gen, eta, elapsed uint64, in []byte) {
		resp := identifyOf(gen, eta, elapsed, in)
		got := appendIdentify(nil, resp)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			finite := func(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
			if finite(resp.Eta) && finite(resp.ElapsedMs) || !json.Valid(got) {
				t.Fatalf("encoding/json: %v; appendIdentify wrote %s", err, got)
			}
			return
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendIdentify differs from encoding/json\n got %s\nwant %s", got, want.Bytes())
		}
		// conf marshals through appendFloat itself; its finite values are
		// checked against encoding/json's float64 here.
		for _, r := range resp.Rules {
			if w, err := json.Marshal(float64(r.Conf)); err == nil && !bytes.Equal(appendFloat(nil, float64(r.Conf)), w) {
				t.Fatalf("conf %v: appendFloat wrote %s, encoding/json %s", float64(r.Conf), appendFloat(nil, float64(r.Conf)), w)
			}
		}
	})
}
