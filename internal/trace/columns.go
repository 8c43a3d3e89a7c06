package trace

import (
	"hpctradeoff/internal/simtime"
	"unsafe"
)

// Columns is the trace representation: per rank, one parallel typed
// array per event field plus two arenas for the variable-length
// payloads (Waitall request sets and Alltoallv send tables). It has no
// per-event struct padding and no slice headers on events that carry
// none, and it reads back out through EventAt without materializing
// []Event rows. Codec v3 (WriteColumnsV3, OpenMapped) stores exactly
// this layout, so a file maps in as a *Columns with zero decode.
//
// Campaign-scale replays are trace-access bound: every one of the four
// schemes walks the same 235 traces, so the resident form of a trace
// is the one cost they all pay. Columns is that form.
type Columns struct {
	Meta  Meta
	Comms CommTable
	ranks []rankCols
}

// rankCols holds one rank's event stream as parallel columns. Rows not
// applicable to an op hold the defaults the Builder writes into Event
// fields (NoPeer / NoReq / zero).
type rankCols struct {
	op    []Op
	entry []simtime.Time
	exit  []simtime.Time
	peer  []int32
	tag   []int32
	root  []int32
	req   []int32
	comm  []CommID
	bytes []int64
	// auxOff/auxLen index reqArena for Waitall rows and sbArena for
	// Alltoallv rows; zero-length elsewhere.
	auxOff []uint32
	auxLen []uint32
	// Arenas backing the variable-length payloads of this rank.
	reqArena []int32
	sbArena  []int64
}

// NewColumns returns an empty trace for meta whose communicator table
// contains only MPI_COMM_WORLD.
func NewColumns(meta Meta) *Columns {
	meta.NumRanks = max(meta.NumRanks, 0)
	return &Columns{
		Meta:  meta,
		Comms: NewCommTable(meta.NumRanks),
		ranks: make([]rankCols, meta.NumRanks),
	}
}

// Append adds one event to the end of rank r's stream, copying its
// Reqs and SendBytes (if any) into the rank's arenas. It checks
// nothing: the Builder and the DUMPI importer call Validate when the
// trace is complete, and tests use it to assemble broken traces.
func (c *Columns) Append(r int, e *Event) {
	rc := &c.ranks[r]
	rc.op = append(rc.op, e.Op)
	rc.entry = append(rc.entry, e.Entry)
	rc.exit = append(rc.exit, e.Exit)
	rc.peer = append(rc.peer, e.Peer)
	rc.tag = append(rc.tag, e.Tag)
	rc.root = append(rc.root, e.Root)
	rc.req = append(rc.req, e.Req)
	rc.comm = append(rc.comm, e.Comm)
	rc.bytes = append(rc.bytes, e.Bytes)
	var off, n uint32
	switch e.Op {
	case OpWaitall:
		off, n = uint32(len(rc.reqArena)), uint32(len(e.Reqs))
		rc.reqArena = append(rc.reqArena, e.Reqs...)
	case OpAlltoallv:
		off, n = uint32(len(rc.sbArena)), uint32(len(e.SendBytes))
		rc.sbArena = append(rc.sbArena, e.SendBytes...)
	}
	rc.auxOff = append(rc.auxOff, off)
	rc.auxLen = append(rc.auxLen, n)
}

// clip reallocates every rank's columns and arenas at exactly their
// length, so a finished trace keeps none of the spare capacity that
// appending left behind.
func (c *Columns) clip() {
	for r := range c.ranks {
		rc := &c.ranks[r]
		rc.op = exact(rc.op)
		rc.entry, rc.exit = exact(rc.entry), exact(rc.exit)
		rc.peer, rc.tag, rc.root, rc.req = exact(rc.peer), exact(rc.tag), exact(rc.root), exact(rc.req)
		rc.comm, rc.bytes = exact(rc.comm), exact(rc.bytes)
		rc.auxOff, rc.auxLen = exact(rc.auxOff), exact(rc.auxLen)
		rc.reqArena, rc.sbArena = exact(rc.reqArena), exact(rc.sbArena)
	}
}

// exact returns s itself if it has no spare capacity, and otherwise a
// copy that has none.
func exact[T any](s []T) []T {
	if cap(s) == len(s) {
		return s
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// TraceMeta implements Source.
func (c *Columns) TraceMeta() *Meta { return &c.Meta }

// TraceComms implements Source.
func (c *Columns) TraceComms() *CommTable { return &c.Comms }

// NumRanks returns the number of ranks.
func (c *Columns) NumRanks() int { return len(c.ranks) }

// RankLen implements Source.
func (c *Columns) RankLen(r int) int { return len(c.ranks[r].op) }

// OpAt implements Source.
func (c *Columns) OpAt(r, i int) Op { return c.ranks[r].op[i] }

// EventAt implements Source: it gathers row i of rank r's columns into
// e. Reqs/SendBytes alias the rank arenas (read-only, zero-copy).
func (c *Columns) EventAt(r, i int, e *Event) {
	rc := &c.ranks[r]
	e.Op = rc.op[i]
	e.Entry = rc.entry[i]
	e.Exit = rc.exit[i]
	e.Peer = rc.peer[i]
	e.Tag = rc.tag[i]
	e.Root = rc.root[i]
	e.Req = rc.req[i]
	e.Comm = rc.comm[i]
	e.Bytes = rc.bytes[i]
	e.Reqs, e.SendBytes = nil, nil
	switch rc.op[i] {
	case OpWaitall:
		e.Reqs = rc.reqArena[rc.auxOff[i] : rc.auxOff[i]+rc.auxLen[i]]
	case OpAlltoallv:
		e.SendBytes = rc.sbArena[rc.auxOff[i] : rc.auxOff[i]+rc.auxLen[i]]
	}
}

// SetEventTimes implements Source.
func (c *Columns) SetEventTimes(r, i int, entry, exit simtime.Time) {
	c.ranks[r].entry[i], c.ranks[r].exit[i] = entry, exit
}

// NumEvents returns the total number of events across all ranks.
func (c *Columns) NumEvents() int {
	n := 0
	for r := range c.ranks {
		n += len(c.ranks[r].op)
	}
	return n
}

// FootprintBytes estimates the resident heap bytes of the column
// arrays plus arenas (metadata excluded).
func (c *Columns) FootprintBytes() int64 {
	var b int64
	for r := range c.ranks {
		rc := &c.ranks[r]
		n := int64(cap(rc.op))
		b += n * int64(unsafe.Sizeof(Op(0)))
		b += int64(cap(rc.entry)+cap(rc.exit)) * 8
		b += int64(cap(rc.peer)+cap(rc.tag)+cap(rc.root)+cap(rc.req)) * 4
		b += int64(cap(rc.comm)) * 4
		b += int64(cap(rc.bytes)) * 8
		b += int64(cap(rc.auxOff)+cap(rc.auxLen)) * 4
		b += int64(cap(rc.reqArena)) * 4
		b += int64(cap(rc.sbArena)) * 8
	}
	return b
}
