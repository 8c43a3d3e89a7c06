package mpisim

import (
	"fmt"

	"hpctradeoff/internal/trace"
)

// Session owns what replays can share: the flat arenas a trace lowers
// into (rops, wait sets, request flags), the lowered program itself,
// and the matching state a replay churns through (channel queues and
// send/receive records). A campaign worker replaying hundreds of
// traces on several network models makes its big allocations once and
// lowers each trace once, instead of once per model.
//
// The first Replay after a Reset lowers its trace and keeps the
// program; later Replays reuse it. Lowering does not depend on the
// network model or the machine, and a replay only reads the program,
// so reuse is bit-identical to lowering again. Invalidation is
// explicit: whoever moves on to another trace calls Reset. The kept
// program is not keyed by the Source's identity — a released mapped
// trace and its successor can share an address.
//
// Everything else is overwritten or cleared before use, so no state
// leaks between replays and a session replay equals a stateless one.
//
// A Session is not safe for concurrent use; give each worker its own.
type Session struct {
	opArena  []rop
	reqArena []int32
	flags    []bool

	prog *program // lowered form of the current trace; nil after Reset
	d    *driver  // the replay in progress, for the records' continuations

	chans     []channel
	freeSends []*sendRec
	freeRecvs []*recvRec
}

// NewSession returns an empty Session.
func NewSession() *Session { return &Session{} }

// Reset forgets the lowered program, keeping every allocation. Call it
// between traces; the Replays between two Resets must all be given the
// same, unmodified trace.
func (s *Session) Reset() { s.prog = nil }

// program returns the lowered form of src: the one kept since the last
// Reset, or a fresh lowering, which it keeps. A recording replay is
// outside that economy in both directions. Lowering reads compute
// durations off the event times and recording rewrites them, so a
// program from before is stale afterwards and is dropped; and the
// recording replay's own program goes into arenas of its own rather
// than being kept.
func (s *Session) program(src trace.Source, record bool) (*program, error) {
	if record {
		s.prog = nil
		return lower(src, &Session{})
	}
	if s.prog != nil {
		s.prog.mustFit(src)
		return s.prog, nil
	}
	prog, err := lower(src, s)
	if err != nil {
		return nil, err
	}
	s.prog = prog
	return prog, nil
}

// mustFit panics when the kept program cannot be src's: a missing
// Reset, which would otherwise replay one trace's program under
// another's name. It compares shapes only, so it catches the bug, not
// every instance of it.
func (p *program) mustFit(src trace.Source) {
	n := src.TraceMeta().NumRanks
	ok := n == len(p.evCount)
	for r := 0; ok && r < n; r++ {
		ok = src.RankLen(r) == p.evCount[r]
	}
	if !ok {
		panic(fmt.Sprintf("mpisim: session holds the program of another trace than %s (missing Reset)", src.TraceMeta().ID()))
	}
}

// ops returns a rop arena of length n, reusing the session's backing
// array when it is large enough. Every element is overwritten by the
// fill pass.
func (s *Session) ops(n int) []rop {
	if cap(s.opArena) < n {
		s.opArena = make([]rop, n)
	}
	s.opArena = s.opArena[:n]
	return s.opArena
}

// reqs is ops for the wait-set arena.
func (s *Session) reqs(n int) []int32 {
	if cap(s.reqArena) < n {
		s.reqArena = make([]int32, n)
	}
	s.reqArena = s.reqArena[:n]
	return s.reqArena
}

// flagArena returns a zeroed bool arena of length n; the driver's
// request-state tracking relies on starting from all-false.
func (s *Session) flagArena(n int) []bool {
	if cap(s.flags) < n {
		s.flags = make([]bool, n)
	} else {
		s.flags = s.flags[:n]
		clear(s.flags)
	}
	return s.flags
}

// channels returns n empty matching channels. An aborted replay leaves
// records queued, so the reused ones are emptied here, keeping their
// backing arrays.
func (s *Session) channels(n int) []channel {
	if cap(s.chans) < n {
		s.chans = make([]channel, n)
		return s.chans
	}
	s.chans = s.chans[:n]
	for i := range s.chans {
		s.chans[i].sends.reset()
		s.chans[i].recvs.reset()
	}
	return s.chans
}

// fifo is a queue of record pointers that pops by advancing a head
// index, so the backing array is reused once the queue drains rather
// than sliced away from the front.
type fifo[T any] struct {
	items []*T
	head  int
}

func (q *fifo[T]) empty() bool { return q.head == len(q.items) }

func (q *fifo[T]) push(x *T) { q.items = append(q.items, x) }

// pop removes the oldest record; the queue must not be empty.
func (q *fifo[T]) pop() *T {
	x := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return x
}

func (q *fifo[T]) reset() {
	clear(q.items[q.head:])
	q.items, q.head = q.items[:0], 0
}

// channel holds the unmatched sends and receives of one (src, dst, tag,
// comm), each in posting order.
type channel struct {
	sends fifo[sendRec]
	recvs fifo[recvRec]
}
