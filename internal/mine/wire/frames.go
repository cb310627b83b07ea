package wire

import (
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

	// Symbols are the label names as bytes: a JSON string would turn a
	// name's invalid UTF-8 into U+FFFD, and the worker would intern
	// another name than the coordinator's.
	Symbols [][]byte
	// Fragment is the partition.Fragment.AppendBinary encoding, decoded by
	// the worker once per job.
	Fragment []byte
}

func (s *JobSetup) check() error {
	if s.Worker < 0 || s.D < 0 || s.EmbedCap < 0 {
		return errorf("job setup: negative worker %d, d %d or embedCap %d", s.Worker, s.D, s.EmbedCap)
	}
	return nil
}

// SetupAck is the worker → coordinator reply to JobSetup: the round-0
// classification counts |Pq(x, Fi)| and |q̄ ∩ Fi|, whose sums are the
// graph-wide supports every confidence below divides by.
type SetupAck struct {
	JobID       uint64
	NPq, NPqbar int
}

func (a *SetupAck) check() error {
	if a.NPq < 0 || a.NPqbar < 0 {
		return errorf("setup ack: negative count %d or %d", a.NPq, a.NPqbar)
	}
	return nil
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

func (rd *Round) check() error {
	if rd.Round < 0 {
		return errorf("round %d is negative", rd.Round)
	}
	for i := range rd.Frontier {
		if err := checkLanes(rd.Frontier[i].QCenters); err != nil {
			return err
		}
	}
	return nil
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

func (ms *Messages) check() error {
	if ms.Round < 0 || ms.Ops < 0 || ms.Capped < 0 {
		return errorf("messages: negative round %d, ops %d or capped %d", ms.Round, ms.Ops, ms.Capped)
	}
	for i := range ms.Msgs {
		m := &ms.Msgs[i]
		if err := checkLanes(m.QCenters, m.RSet, m.QqbCenters); err != nil {
			return err
		}
	}
	return nil
}

// ErrorFrame is a typed failure in either direction; the job it belongs to
// is dead, but the connection may serve a future job.
type ErrorFrame struct {
	Msg string
}

func (e *ErrorFrame) check() error { return nil }

// checkLanes refuses a negative node ID, which a worker would otherwise
// use as an index.
func checkLanes(lanes ...[]graph.NodeID) error {
	for _, lane := range lanes {
		for _, v := range lane {
			if v < 0 {
				return errorf("node ID %d is negative", v)
			}
		}
	}
	return nil
}
