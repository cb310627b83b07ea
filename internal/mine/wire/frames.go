package wire

import (
	"encoding/binary"

	"gpar/internal/graph"
	"gpar/internal/pattern"
)

// JobSetup is the coordinator → worker job preamble: the run parameters a
// localMine superstep needs, the label symbol table (names in label-ID
// order, so decoded fragments and patterns speak the coordinator's label
// IDs) and the worker's fragment.
type JobSetup struct {
	JobID    uint64
	Worker   int // this worker's index (message attribution)
	D        int
	EmbedCap int

	XLabel, EdgeLabel, YLabel graph.Label

	Symbols []string
	// Fragment is the partition.Fragment.AppendBinary encoding, decoded by
	// the worker once per job.
	Fragment []byte
}

// Append encodes the setup into dst.
func (s *JobSetup) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, s.JobID)
	dst = binary.AppendUvarint(dst, uint64(s.Worker))
	dst = binary.AppendUvarint(dst, uint64(s.D))
	dst = binary.AppendUvarint(dst, uint64(s.EmbedCap))
	dst = binary.AppendVarint(dst, int64(s.XLabel))
	dst = binary.AppendVarint(dst, int64(s.EdgeLabel))
	dst = binary.AppendVarint(dst, int64(s.YLabel))
	dst = binary.AppendUvarint(dst, uint64(len(s.Symbols)))
	for _, name := range s.Symbols {
		dst = appendString(dst, name)
	}
	return appendBytesField(dst, s.Fragment)
}

// DecodeJobSetup decodes a TypeJobSetup payload.
func DecodeJobSetup(p []byte) (*JobSetup, error) {
	r := reader{buf: p}
	s := &JobSetup{
		JobID:     r.uvarint("jobID"),
		Worker:    r.intf("worker index"),
		D:         r.intf("d"),
		EmbedCap:  r.intf("embedCap"),
		XLabel:    graph.Label(r.varint("xLabel")),
		EdgeLabel: graph.Label(r.varint("edgeLabel")),
		YLabel:    graph.Label(r.varint("yLabel")),
	}
	nsym := r.intf("symbol count")
	for i := 0; i < nsym && r.err == nil; i++ {
		s.Symbols = append(s.Symbols, r.string("symbol"))
	}
	s.Fragment = r.bytesCopy("fragment")
	if err := r.done(); err != nil {
		return nil, err
	}
	return s, nil
}

// SetupAck is the worker → coordinator reply to JobSetup: the round-0
// classification counts |Pq(x, Fi)| and |q̄ ∩ Fi|, whose sums are the
// graph-wide supports every confidence below divides by.
type SetupAck struct {
	JobID       uint64
	NPq, NPqbar int
}

// Append encodes the ack into dst.
func (a *SetupAck) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, a.JobID)
	dst = binary.AppendUvarint(dst, uint64(a.NPq))
	dst = binary.AppendUvarint(dst, uint64(a.NPqbar))
	return dst
}

// DecodeSetupAck decodes a TypeSetupAck payload.
func DecodeSetupAck(p []byte) (*SetupAck, error) {
	r := reader{buf: p}
	a := &SetupAck{
		JobID:  r.uvarint("jobID"),
		NPq:    r.intf("npq"),
		NPqbar: r.intf("npqbar"),
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return a, nil
}

// FrontierEntry ships one frontier rule structurally: its run-wide id, the
// growth step (parent id + extension) the worker replays to rebuild the
// antecedent pattern — pattern.Apply is deterministic, so the rebuilt Q is
// byte-identical to the coordinator's — and the rule's graph-wide Q-match
// centers, which the worker filters down to the ones it owns. ID 0 is the
// seed rule: empty antecedent, every owned center matches, Ext/QCenters
// empty.
type FrontierEntry struct {
	ID       uint32
	Parent   uint32
	Ext      pattern.Extension
	QCenters []graph.NodeID
}

// Round is the coordinator → worker superstep request: install the frontier
// and run localMine over it. The worker answers with Messages for the same
// round number.
type Round struct {
	Round    int
	Frontier []FrontierEntry
}

// Append encodes the round into dst.
func (rd *Round) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(rd.Round))
	dst = binary.AppendUvarint(dst, uint64(len(rd.Frontier)))
	for i := range rd.Frontier {
		fe := &rd.Frontier[i]
		dst = binary.AppendUvarint(dst, uint64(fe.ID))
		dst = binary.AppendUvarint(dst, uint64(fe.Parent))
		dst = appendExtension(dst, fe.Ext)
		dst = appendLane(dst, fe.QCenters)
	}
	return dst
}

// DecodeRound decodes a TypeRound payload.
func DecodeRound(p []byte) (*Round, error) {
	r := reader{buf: p}
	rd := &Round{Round: r.intf("round")}
	n := r.intf("frontier size")
	for i := 0; i < n && r.err == nil; i++ {
		fe := FrontierEntry{
			ID:     uint32(r.intf("rule id")),
			Parent: uint32(r.intf("parent id")),
			Ext:    readExtension(&r),
		}
		fe.QCenters = readLane(&r, "qCenters")
		rd.Frontier = append(rd.Frontier, fe)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return rd, nil
}

// Msg is one candidate message of Fig. 4 as it crosses the wire: the
// structural (parent, extension) identity plus the three support lanes of
// global node IDs.
type Msg struct {
	Parent     uint32
	Ext        pattern.Extension
	QCenters   []graph.NodeID
	RSet       []graph.NodeID
	QqbCenters []graph.NodeID
}

// Messages is the worker → coordinator superstep reply: the round's
// candidate messages in the worker's deterministic emission order, plus the
// worker's cumulative match-operation count (the O(t/n) work proxy) and its
// cumulative count of enumerations that reached EmbedCap, piggybacked so the
// coordinator always holds the latest.
type Messages struct {
	Round  int
	Ops    int64
	Capped int64
	Msgs   []Msg
}

// Append encodes the messages into dst.
func (ms *Messages) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(ms.Round))
	dst = binary.AppendVarint(dst, ms.Ops)
	dst = binary.AppendVarint(dst, ms.Capped)
	dst = binary.AppendUvarint(dst, uint64(len(ms.Msgs)))
	for i := range ms.Msgs {
		m := &ms.Msgs[i]
		dst = binary.AppendUvarint(dst, uint64(m.Parent))
		dst = appendExtension(dst, m.Ext)
		dst = appendLane(dst, m.QCenters)
		dst = appendLane(dst, m.RSet)
		dst = appendLane(dst, m.QqbCenters)
	}
	return dst
}

// DecodeMessages decodes a TypeMessages payload.
func DecodeMessages(p []byte) (*Messages, error) {
	r := reader{buf: p}
	ms := &Messages{
		Round:  r.intf("round"),
		Ops:    r.varint("ops"),
		Capped: r.varint("capped"),
	}
	n := r.intf("message count")
	for i := 0; i < n && r.err == nil; i++ {
		m := Msg{
			Parent: uint32(r.intf("parent id")),
			Ext:    readExtension(&r),
		}
		m.QCenters = readLane(&r, "qCenters")
		m.RSet = readLane(&r, "rSet")
		m.QqbCenters = readLane(&r, "qqbCenters")
		ms.Msgs = append(ms.Msgs, m)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return ms, nil
}

// ErrorFrame is a typed failure in either direction; the job it belongs to
// is dead, but the connection may serve a future job.
type ErrorFrame struct {
	Msg string
}

// Append encodes the error into dst.
func (e *ErrorFrame) Append(dst []byte) []byte {
	return appendString(dst, e.Msg)
}

// DecodeError decodes a TypeError payload.
func DecodeError(p []byte) (*ErrorFrame, error) {
	r := reader{buf: p}
	e := &ErrorFrame{Msg: r.string("error message")}
	if err := r.done(); err != nil {
		return nil, err
	}
	return e, nil
}

// appendExtension encodes a pattern extension. Src and Close are node
// ordinals within the pattern (Close may be the NoNode sentinel -1, hence
// signed); labels are encoded signed for uniformity with Close, at a cost
// of one bit that varints absorb.
func appendExtension(dst []byte, e pattern.Extension) []byte {
	dst = binary.AppendVarint(dst, int64(e.Src))
	var flags byte
	if e.Outgoing {
		flags |= 1
	}
	if e.AsY {
		flags |= 2
	}
	dst = append(dst, flags)
	dst = binary.AppendVarint(dst, int64(e.EdgeLabel))
	dst = binary.AppendVarint(dst, int64(e.NewLabel))
	dst = binary.AppendVarint(dst, int64(e.Close))
	return dst
}

func readExtension(r *reader) pattern.Extension {
	var e pattern.Extension
	e.Src = int(r.varint("ext src"))
	if r.err == nil {
		if len(r.buf) == 0 {
			r.fail("truncated payload reading ext flags")
		} else {
			flags := r.buf[0]
			r.buf = r.buf[1:]
			if flags > 3 {
				r.fail("ext flags byte is %d, want 0-3", flags)
			}
			e.Outgoing = flags&1 != 0
			e.AsY = flags&2 != 0
		}
	}
	e.EdgeLabel = graph.Label(r.varint("ext edge label"))
	e.NewLabel = graph.Label(r.varint("ext new label"))
	e.Close = int(r.varint("ext close"))
	return e
}

// appendLane encodes one center lane: count, then node IDs as uvarints.
func appendLane(dst []byte, lane []graph.NodeID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(lane)))
	for _, v := range lane {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	return dst
}

func readLane(r *reader, what string) []graph.NodeID {
	n := r.intf(what)
	if r.err != nil || n == 0 {
		return nil
	}
	if n > len(r.buf) { // every ID takes at least one byte; bounds the allocation below
		r.fail("%s claims %d IDs in %d bytes", what, n, len(r.buf))
		return nil
	}
	lane := make([]graph.NodeID, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		lane = append(lane, graph.NodeID(r.intf(what)))
	}
	return lane
}
