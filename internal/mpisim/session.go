package mpisim

import (
	"fmt"

	"hpctradeoff/internal/des"
	"hpctradeoff/internal/trace"
)

// Session owns what replays can share: the flat arenas a trace lowers
// into (rops, template rops, wait sets), the lowered program itself, and the state a
// replay churns through (request states, the completion-key pool,
// channel queues and send/receive records). A campaign worker replaying hundreds of
// traces on several network models makes its big allocations once and
// lowers each trace at most once, instead of once per model.
//
// The first Replay after a Reset lowers its trace and keeps the
// program; later Replays reuse it. A caller that already holds the
// trace's program (the trace cache keeps one next to every trace)
// hands it over with Adopt instead, and the session never lowers.
// Lowering does not depend on the network model or the machine, and a
// replay only reads the program, so reuse is bit-identical to lowering
// again. Invalidation is explicit: whoever moves on to another trace
// calls Reset. The kept program is not keyed by the Source's identity —
// a released mapped trace and its successor can share an address.
//
// Everything else is overwritten or cleared before use, so no state
// leaks between replays and a session replay equals a stateless one.
//
// A Session is not safe for concurrent use; give each worker its own.
type Session struct {
	opArena   []Rop
	tmplArena []Rop
	reqArena  []int32
	reqState  []int32
	keys      []des.Key
	freeKeys  []int32

	prog *Program // program of the current trace; nil after Reset
	d    *driver  // the replay in progress, for the records' continuations

	chans     []channel
	freeSends []*sendRec
	freeRecvs []*recvRec
}

// NewSession returns an empty Session.
func NewSession() *Session { return &Session{} }

// Reset forgets the program, keeping every allocation. Call it between
// traces; the Replays between two Resets must all be given the same,
// unmodified trace.
func (s *Session) Reset() { s.prog = nil }

// Adopt makes p the program of the current trace, as if the session
// had lowered it: the Replays up to the next Reset run p instead of
// lowering. p must be the program of the trace those Replays are
// given, and must not change while adopted.
func (s *Session) Adopt(p *Program) { s.prog = p }

// Lower returns the program of src: the one kept since the last Reset,
// or a fresh lowering into the session's arenas, which it keeps. A
// program the session lowered is valid until the session lowers
// another trace.
func (s *Session) Lower(src trace.Source) (*Program, error) {
	if s.prog != nil {
		s.mustFit(src)
		return s.prog, nil
	}
	prog, err := lower(src, s)
	if err != nil {
		return nil, err
	}
	s.prog = prog
	return prog, nil
}

// program returns the program a replay of src runs. A recording replay
// is outside the session's economy: it rewrites the event times
// lowering reads, so no program survives it in the session. It runs
// the adopted program if there is one (the stamper's, which retimes it
// afterwards) and otherwise a lowering of its own, in arenas of its
// own.
func (s *Session) program(src trace.Source, record bool) (*Program, error) {
	if !record {
		return s.Lower(src)
	}
	if s.prog == nil {
		return Lower(src)
	}
	s.mustFit(src)
	prog := s.prog
	s.prog = nil
	return prog, nil
}

// mustFit panics when the kept program cannot be src's: a missing
// Reset, which would otherwise replay one trace's program under
// another's name. It compares shapes only, so it catches the bug, not
// every instance of it.
func (s *Session) mustFit(src trace.Source) {
	if err := s.prog.Fits(src); err != nil {
		panic(fmt.Sprintf("mpisim: session holds the program of another trace than %s (missing Reset): %v", src.TraceMeta().ID(), err))
	}
}

// arena returns *a emptied, with room for n elements: a lowering's
// arenas reuse the session's backing arrays when they are large enough.
func arena[T any](a *[]T, n int) []T {
	if cap(*a) < n {
		*a = make([]T, 0, n)
	}
	return (*a)[:0]
}

// reqStates returns a zeroed request-state arena of length n; the
// driver's request tracking relies on starting from all-zero.
func (s *Session) reqStates(n int) []int32 {
	if cap(s.reqState) < n {
		s.reqState = make([]int32, n)
	} else {
		s.reqState = s.reqState[:n]
		clear(s.reqState)
	}
	return s.reqState
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
