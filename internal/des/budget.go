package des

import (
	"errors"
	"time"
)

// ErrBudgetExceeded is returned (wrapped) by an engine whose run was
// cut short because a Budget limit — event count or wall-clock
// deadline — was reached. A campaign treats it as "this
// trace is a runaway", not "the runner is broken".
var ErrBudgetExceeded = errors.New("des: budget exceeded")

// ErrCanceled is returned (wrapped) by an engine stopped through Stop
// before its event queue drained.
var ErrCanceled = errors.New("des: run canceled")

// Budget bounds a simulation run. Zero values mean "unlimited"; the
// zero Budget imposes no limits at all. Limits are cooperative: they
// are checked between events, so a run stops after the event in flight
// completes, never inside it.
type Budget struct {
	// MaxEvents caps the number of logical events, Engine.Steps: a
	// reserved key counts from the moment it is reserved, and each
	// member of a batch counts, so a model's keying and batching never
	// stretch the cap. The run halts before the next pop once the count
	// reaches the cap, which it may already have passed when one event
	// reserves several keys.
	MaxEvents uint64
	// Deadline is a wall-clock cutoff. It is polled every
	// deadlineCheckInterval pops to keep time.Now off the hot path,
	// so enforcement granularity is that many popped events.
	Deadline time.Time
}

// limited reports whether any bound is set.
func (b Budget) limited() bool {
	return b.MaxEvents > 0 || !b.Deadline.IsZero()
}

// deadlineCheckInterval throttles wall-clock reads on the event loop;
// it must be a power of two (used as a mask).
const deadlineCheckInterval = 2048
