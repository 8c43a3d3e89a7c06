package trace

import "hpctradeoff/internal/simtime"

// Source is the uniform access path replay engines walk a trace
// through. Both representations implement it — the array-of-structs
// *Trace and the columnar *Columns — so MFACT and the simulators are
// written once and replay either form bit-identically (the determinism
// contract extension documented in DESIGN.md).
//
// EventAt fills the caller's Event instead of returning one so a tight
// replay loop reuses a single stack buffer: reading an event never
// allocates. Variable-length payloads (Waitall request sets, Alltoallv
// send tables) are subslices of the trace's backing storage and must
// be treated as read-only.
type Source interface {
	// TraceMeta returns the trace identity and capability metadata.
	TraceMeta() *Meta
	// TraceComms returns the communicator table.
	TraceComms() *CommTable
	// RankLen returns the number of events on rank r.
	RankLen(r int) int
	// EventAt fills e with rank r's i-th event.
	EventAt(r, i int, e *Event)
	// OpAt returns the op of rank r's i-th event, for scans that look
	// at a few kinds of event and skip the rest.
	OpAt(r, i int) Op
	// SetEventTimes overwrites the entry/exit timestamps of rank r's
	// i-th event (the ground-truth executor's write-back path).
	SetEventTimes(r, i int, entry, exit simtime.Time)
}

// Statically assert both representations satisfy Source.
var (
	_ Source = (*Trace)(nil)
	_ Source = (*Columns)(nil)
)

// Cursor iterates one rank's event stream in order, yielding events by
// value with zero per-event allocation. The zero Cursor is empty; use
// RankCursor (or Trace.Cursor / Columns.Cursor) to position one.
type Cursor struct {
	src  Source
	rank int
	next int
	n    int
}

// RankCursor returns a cursor over rank r of src.
func RankCursor(src Source, r int) Cursor {
	return Cursor{src: src, rank: r, n: src.RankLen(r)}
}

// Len returns the total number of events the cursor covers.
func (c *Cursor) Len() int { return c.n }

// Index returns the index of the event most recently yielded by Next,
// or -1 before the first Next.
func (c *Cursor) Index() int { return c.next - 1 }

// Rank returns the rank this cursor walks.
func (c *Cursor) Rank() int { return c.rank }

// Next fills e with the next event and reports whether one was
// available. e's slice fields alias trace storage; treat as read-only.
func (c *Cursor) Next(e *Event) bool {
	if c.next >= c.n {
		return false
	}
	c.src.EventAt(c.rank, c.next, e)
	c.next++
	return true
}

// Reset rewinds the cursor to the start of its rank.
func (c *Cursor) Reset() { c.next = 0 }

// Trace's Source implementation: thin views over the Ranks slices.

// TraceMeta implements Source.
func (t *Trace) TraceMeta() *Meta { return &t.Meta }

// TraceComms implements Source.
func (t *Trace) TraceComms() *CommTable { return &t.Comms }

// RankLen implements Source.
func (t *Trace) RankLen(r int) int { return len(t.Ranks[r]) }

// EventAt implements Source.
func (t *Trace) EventAt(r, i int, e *Event) { *e = t.Ranks[r][i] }

// OpAt implements Source.
func (t *Trace) OpAt(r, i int) Op { return t.Ranks[r][i].Op }

// SetEventTimes implements Source.
func (t *Trace) SetEventTimes(r, i int, entry, exit simtime.Time) {
	t.Ranks[r][i].Entry, t.Ranks[r][i].Exit = entry, exit
}

// Cursor returns a zero-allocation cursor over rank r.
func (t *Trace) Cursor(r int) Cursor { return RankCursor(t, r) }
