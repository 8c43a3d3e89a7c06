package trace

import (
	"hpctradeoff/internal/simtime"
	"unsafe"
)

// Columns is the columnar (structure-of-arrays) trace representation:
// per rank, one parallel typed array per event field plus two shared
// arenas for the variable-length payloads (Waitall request sets and
// Alltoallv send tables). It holds exactly the information of a *Trace
// in roughly half the memory — no per-event struct padding, no slice
// headers on events that carry none — and reads back out through
// zero-copy cursors (Cursor, EventAt) without materializing []Event.
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
// applicable to an op hold the same defaults the Builder writes into
// Event fields (NoPeer / NoReq / zero), so a gathered Event is
// field-for-field identical to its array-of-structs twin.
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

// NewColumns returns an empty columnar trace for meta (world-only
// communicator table), the columnar analog of New.
func NewColumns(meta Meta) *Columns {
	meta.NumRanks = max(meta.NumRanks, 0)
	return &Columns{
		Meta:  meta,
		Comms: NewCommTable(meta.NumRanks),
		ranks: make([]rankCols, meta.NumRanks),
	}
}

// append adds one event to rank r's columns. The event's Reqs and
// SendBytes (if any) are copied into the rank's arenas.
func (c *Columns) append(r int, e *Event) {
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

// Cursor returns a zero-allocation cursor over rank r.
func (c *Columns) Cursor(r int) Cursor { return RankCursor(c, r) }

// NumEvents returns the total number of events across all ranks.
func (c *Columns) NumEvents() int {
	n := 0
	for r := range c.ranks {
		n += len(c.ranks[r].op)
	}
	return n
}

// MeasuredTotal returns the latest Exit across all ranks.
func (c *Columns) MeasuredTotal() simtime.Time {
	var total simtime.Time
	for r := range c.ranks {
		if n := len(c.ranks[r].exit); n > 0 {
			total = simtime.Max(total, c.ranks[r].exit[n-1])
		}
	}
	return total
}

// MeasuredComm returns the measured communication time (everything
// except compute), summed per rank and averaged over ranks.
func (c *Columns) MeasuredComm() simtime.Time {
	if len(c.ranks) == 0 {
		return 0
	}
	var sum simtime.Time
	for r := range c.ranks {
		rc := &c.ranks[r]
		for i, op := range rc.op {
			if op != OpCompute {
				sum += rc.exit[i] - rc.entry[i]
			}
		}
	}
	return sum / simtime.Time(len(c.ranks))
}

// CommFraction returns MeasuredComm divided by MeasuredTotal, in [0,1].
func (c *Columns) CommFraction() float64 {
	total := c.MeasuredTotal()
	if total <= 0 {
		return 0
	}
	return float64(c.MeasuredComm()) / float64(total)
}

// Validate checks the same structural invariants Trace.Validate does,
// directly on the columns.
func (c *Columns) Validate() error { return validateSource(c) }

// FromTrace converts an array-of-structs trace to columnar form. The
// communicator table is copied shallowly (member slices are shared;
// they are immutable by contract).
func FromTrace(t *Trace) *Columns {
	c := &Columns{Meta: t.Meta, Comms: t.Comms, ranks: make([]rankCols, len(t.Ranks))}
	for r, evs := range t.Ranks {
		rc := &c.ranks[r]
		n := len(evs)
		rc.op = make([]Op, n)
		rc.entry = make([]simtime.Time, n)
		rc.exit = make([]simtime.Time, n)
		rc.peer = make([]int32, n)
		rc.tag = make([]int32, n)
		rc.root = make([]int32, n)
		rc.req = make([]int32, n)
		rc.comm = make([]CommID, n)
		rc.bytes = make([]int64, n)
		rc.auxOff = make([]uint32, n)
		rc.auxLen = make([]uint32, n)
		nReq, nSB := 0, 0
		for i := range evs {
			nReq += len(evs[i].Reqs)
			nSB += len(evs[i].SendBytes)
		}
		rc.reqArena = make([]int32, 0, nReq)
		rc.sbArena = make([]int64, 0, nSB)
		for i := range evs {
			e := &evs[i]
			rc.op[i] = e.Op
			rc.entry[i], rc.exit[i] = e.Entry, e.Exit
			rc.peer[i], rc.tag[i], rc.root[i], rc.req[i] = e.Peer, e.Tag, e.Root, e.Req
			rc.comm[i], rc.bytes[i] = e.Comm, e.Bytes
			switch e.Op {
			case OpWaitall:
				rc.auxOff[i], rc.auxLen[i] = uint32(len(rc.reqArena)), uint32(len(e.Reqs))
				rc.reqArena = append(rc.reqArena, e.Reqs...)
			case OpAlltoallv:
				rc.auxOff[i], rc.auxLen[i] = uint32(len(rc.sbArena)), uint32(len(e.SendBytes))
				rc.sbArena = append(rc.sbArena, e.SendBytes...)
			}
		}
	}
	return c
}

// Materialize converts the columns back to an array-of-structs trace.
// Event Reqs/SendBytes fields alias the column arenas (zero-copy).
func (c *Columns) Materialize() *Trace {
	t := &Trace{Meta: c.Meta, Comms: c.Comms, Ranks: make([][]Event, len(c.ranks))}
	for r := range c.ranks {
		n := len(c.ranks[r].op)
		evs := make([]Event, n)
		for i := range evs {
			c.EventAt(r, i, &evs[i])
		}
		t.Ranks[r] = evs
	}
	return t
}

// FootprintBytes estimates the resident heap bytes of the columnar
// representation (column arrays plus arenas; metadata excluded).
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

// AoSFootprintBytes estimates the resident heap bytes of the
// array-of-structs representation of t: the Event rows plus the
// per-event side slices.
func AoSFootprintBytes(t *Trace) int64 {
	var b int64
	for _, evs := range t.Ranks {
		b += int64(cap(evs)) * int64(unsafe.Sizeof(Event{}))
		for i := range evs {
			b += int64(cap(evs[i].Reqs)) * 4
			b += int64(cap(evs[i].SendBytes)) * 8
		}
	}
	return b
}
