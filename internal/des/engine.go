// Package des provides the discrete-event simulation engine the network
// simulators run on: a sequential event-heap engine that every network
// model in internal/simnet, and so every simulator replay, uses.
//
// Every event has a key, its (time, sequence number) place in one total
// order, and most events are popped off the queue in that order. Two
// kinds are not. A model may reserve a key without queueing anything
// (Reserve) when the event's handler would only flip state that a later
// observer can read off the key by comparing it with Current; it queues
// the one reserved key that does order something with AtKey. And events
// that share a time under consecutive sequence numbers can run as one
// pop (AtBatch), since nothing else can come between them. Keys come
// from the sequence counter at the moments the events would have been
// scheduled, so every event that is still queued pops where it always
// did. Steps counts all of them, popped or not; Popped counts the heap
// work. DESIGN.md §9 ("Keys, not pops") has the exactness argument.
//
// A conservative parallel (Chandy–Misra–Bryant null-message) engine,
// the family SST/Macro's PDES core belongs to, was built and measured
// here and then retired: on the hosts the study runs on it cost several
// times the sequential engine per event and never joined a campaign
// path. EXPERIMENTS.md ("CMB engine retired") has the numbers and what
// would reopen the question.
package des

import (
	"fmt"
	"sync/atomic"
	"time"

	"hpctradeoff/internal/simtime"
)

// Engine is a sequential discrete-event engine. Events are closures
// executed in nondecreasing timestamp order; ties are broken by
// scheduling order, which makes runs fully deterministic.
//
// The zero value is ready to use.
type Engine struct {
	now   simtime.Time
	queue eventQueue
	seq   uint64
	cur   uint64 // sequence number of the event now running
	// popped counts the events taken off the queue; keyed counts the
	// logical events that never will be: reserved keys not (yet)
	// queued, and the members of a batch after its first.
	popped uint64
	keyed  uint64

	budget  Budget
	limited bool
	stopReq atomic.Bool
	err     error
}

// schedEvent is one pending event. The queue orders events by
// (timestamp, scheduling sequence); seq is unique, so the order is
// total — the determinism contract.
type schedEvent struct {
	at  simtime.Time
	seq uint64
	fn  func()
}

// Key is an event's place in the engine's total order: its time, then
// its sequence number. Sequence numbers start at 1, so the zero Key
// is before every event and marks "no key".
type Key struct {
	At  simtime.Time
	Seq uint64
}

// Before reports whether k comes before o in the engine's order.
func (k Key) Before(o Key) bool {
	return k.At < o.At || k.At == o.At && k.Seq < o.Seq
}

// Now returns the current simulation time.
func (e *Engine) Now() simtime.Time { return e.now }

// Current returns the key of the event now running. Inside a batch
// it is the batch's first key; no other event's key lies between the
// members, so comparing a key with it orders the key against every
// member alike.
func (e *Engine) Current() Key { return Key{e.now, e.cur} }

// Steps returns the number of logical events so far: those popped, the
// reserved keys that were never queued, and the members of each batch.
// A key counts from the moment it is reserved. The paper's complexity
// comparisons are in terms of event counts; Steps is the simulators'
// cost metric alongside wall-clock time, and it does not depend on
// which events a model keys or batches.
func (e *Engine) Steps() uint64 { return e.popped + e.keyed }

// Popped returns the number of events taken off the queue so far: the
// heap work behind Steps.
func (e *Engine) Popped() uint64 { return e.popped }

// Pending returns the number of scheduled, not-yet-executed events.
func (e *Engine) Pending() int { return e.queue.len() }

// PeakPending returns the most events that were ever pending at once:
// the deepest the queue has been.
func (e *Engine) PeakPending() int { return e.queue.peak }

// At schedules fn to run at absolute time t. Scheduling in the past
// (t < Now) panics: it indicates a causality bug in the model. The
// campaign layer's panic isolation converts such a panic into a
// classified TraceError instead of killing the process.
func (e *Engine) At(t simtime.Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("des: scheduling into the past (t=%v < now=%v)", t, e.now))
	}
	e.seq++
	e.queue.push(schedEvent{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d simtime.Time, fn func()) { e.At(e.now+d, fn) }

// Reserve hands out the key an event at t would get from At, without
// queueing it: the event counts as executed, and nothing runs for it.
// The model keeps the key, compares it with Current to learn whether
// the event has happened yet, and may queue it later with AtKey.
func (e *Engine) Reserve(t simtime.Time) Key {
	if t < e.now {
		panic(fmt.Sprintf("des: reserving a key in the past (t=%v < now=%v)", t, e.now))
	}
	e.seq++
	e.keyed++
	return Key{t, e.seq}
}

// AtKey queues fn under a key from Reserve, which must still be ahead
// of Current and must not have been queued before. It pops exactly
// where an event scheduled with At at reservation time would have.
func (e *Engine) AtKey(k Key, fn func()) {
	if !e.Current().Before(k) {
		panic(fmt.Sprintf("des: queueing key %v at or before the running event %v", k, e.Current()))
	}
	e.keyed--
	e.queue.push(schedEvent{at: k.At, seq: k.Seq, fn: fn})
}

// AtBatch schedules n ≥ 1 events at time t under n consecutive
// sequence numbers — what n calls to At(t, …) in a row would do — and
// runs them as one pop: fn must do the work of all n, in order.
// Nothing can pop between events that share a time and adjacent
// sequence numbers, so the batch is exact.
func (e *Engine) AtBatch(t simtime.Time, n int, fn func()) {
	e.At(t, fn)
	e.seq += uint64(n - 1)
	e.keyed += uint64(n - 1)
}

// SetBudget bounds the run. It may be called before Run or between
// RunUntil slices; a zero Budget removes all limits.
func (e *Engine) SetBudget(b Budget) {
	e.budget = b
	e.limited = b.limited()
}

// Stop requests cooperative cancellation: the engine finishes the
// event in flight and returns from Run with Err() wrapping
// ErrCanceled. Stop is the one Engine method safe to call from another
// goroutine (a wall-clock watchdog, a signal handler).
func (e *Engine) Stop() { e.stopReq.Store(true) }

// Err reports why the last Run (or RunUntil) stopped early: an error
// wrapping ErrBudgetExceeded or ErrCanceled, or nil if the queue
// drained normally.
func (e *Engine) Err() error { return e.err }

// Run executes events until the queue is empty — or until the budget
// is exhausted or Stop is called, in which case Err reports the typed
// reason — and returns the final simulation time.
func (e *Engine) Run() simtime.Time {
	for e.queue.len() > 0 && !e.halted() {
		e.step()
	}
	return e.now
}

// RunUntil executes events with timestamps ≤ limit and then sets the
// clock to limit (if it has not already passed it). It returns the
// number of events executed. Budget and Stop apply as in Run.
func (e *Engine) RunUntil(limit simtime.Time) uint64 {
	start := e.Steps()
	for e.queue.len() > 0 && e.queue.min().at <= limit && !e.halted() {
		e.step()
	}
	if e.now < limit && e.err == nil {
		e.now = limit
	}
	return e.Steps() - start
}

// halted checks the stop flag and the budget, recording the typed
// error on the first limit hit. Once halted, the engine stays halted.
func (e *Engine) halted() bool {
	if e.err != nil {
		return true
	}
	if e.stopReq.Load() {
		e.err = fmt.Errorf("%w after %d events at t=%v", ErrCanceled, e.Steps(), e.now)
		return true
	}
	if !e.limited {
		return false
	}
	b := e.budget
	switch {
	case b.MaxEvents > 0 && e.Steps() >= b.MaxEvents:
		e.err = fmt.Errorf("%w: %d events executed (cap %d)", ErrBudgetExceeded, e.Steps(), b.MaxEvents)
	case !b.Deadline.IsZero() && e.popped&(deadlineCheckInterval-1) == 0 && time.Now().After(b.Deadline):
		e.err = fmt.Errorf("%w: wall-clock deadline passed after %d events", ErrBudgetExceeded, e.Steps())
	default:
		return false
	}
	return true
}

func (e *Engine) step() {
	ev := e.queue.pop()
	e.now, e.cur = ev.at, ev.seq
	e.popped++
	ev.fn()
}
