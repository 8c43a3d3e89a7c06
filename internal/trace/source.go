package trace

import "hpctradeoff/internal/simtime"

// Source is the access path replay engines, the ground-truth stamper
// and the feature extractor walk a trace through. *Columns (and a
// *Mapped, which embeds one) is the only production implementation;
// the interface stays so MFACT, the simulators and the stamper depend
// on the handful of calls below rather than on the column layout, and
// so tests can substitute a fake that checks how a consumer walks a
// trace.
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

var _ Source = (*Columns)(nil)
