// Package des provides the discrete-event simulation engine the network
// simulators run on: a sequential event-heap engine that every network
// model in internal/simnet, and so every simulator replay, uses.
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

	"hpctradeoff/internal/faultinject"
	"hpctradeoff/internal/simtime"
)

// failStep is the event-loop failpoint, hit once per executed event. An
// injected stall sleeps inside the loop — the shape
// of a livelocked model that only a wall-clock Deadline can catch, so
// the budget watchdog is exercisable deterministically — and an
// injected error halts the run through the cooperative-cancellation
// path (as Stop would). Disarmed it costs one atomic load, alongside
// the stop-flag load the loop already pays.
var failStep = faultinject.NewSite("des/step")

// Engine is a sequential discrete-event engine. Events are closures
// executed in nondecreasing timestamp order; ties are broken by
// scheduling order, which makes runs fully deterministic.
//
// The zero value is ready to use.
type Engine struct {
	now   simtime.Time
	queue eventQueue
	seq   uint64
	steps uint64

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

// Now returns the current simulation time.
func (e *Engine) Now() simtime.Time { return e.now }

// Steps returns the number of events executed so far. The paper's
// complexity comparisons are in terms of event counts; Steps is the
// simulators' cost metric alongside wall-clock time.
func (e *Engine) Steps() uint64 { return e.steps }

// Pending returns the number of scheduled, not-yet-executed events.
func (e *Engine) Pending() int { return e.queue.len() }

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
	start := e.steps
	for e.queue.len() > 0 && e.queue.min().at <= limit && !e.halted() {
		e.step()
	}
	if e.now < limit && e.err == nil {
		e.now = limit
	}
	return e.steps - start
}

// halted checks the stop flag and the budget, recording the typed
// error on the first limit hit. Once halted, the engine stays halted.
func (e *Engine) halted() bool {
	if e.err != nil {
		return true
	}
	if e.stopReq.Load() {
		e.err = fmt.Errorf("%w after %d events at t=%v", ErrCanceled, e.steps, e.now)
		return true
	}
	if err := failStep.Fail(); err != nil {
		e.err = fmt.Errorf("%w after %d events at t=%v: %v", ErrCanceled, e.steps, e.now, err)
		return true
	}
	if !e.limited {
		return false
	}
	b := e.budget
	switch {
	case b.MaxEvents > 0 && e.steps >= b.MaxEvents:
		e.err = fmt.Errorf("%w: %d events executed (cap %d)", ErrBudgetExceeded, e.steps, b.MaxEvents)
	case b.MaxTime > 0 && e.queue.min().at > b.MaxTime:
		e.err = fmt.Errorf("%w: next event at %v is past the simulated-time cap %v", ErrBudgetExceeded, e.queue.min().at, b.MaxTime)
	case !b.Deadline.IsZero() && e.steps&(deadlineCheckInterval-1) == 0 && time.Now().After(b.Deadline):
		e.err = fmt.Errorf("%w: wall-clock deadline passed after %d events", ErrBudgetExceeded, e.steps)
	default:
		return false
	}
	return true
}

func (e *Engine) step() {
	ev := e.queue.pop()
	e.now = ev.at
	e.steps++
	ev.fn()
}
