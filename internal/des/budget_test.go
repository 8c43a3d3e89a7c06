package des

import (
	"errors"
	"strings"
	"testing"
	"time"

	"hpctradeoff/internal/simtime"
)

// runaway returns an engine whose single event reschedules itself
// forever — the shape of a livelocked model.
func runaway() *Engine {
	e := &Engine{}
	var tick func()
	tick = func() { e.After(simtime.Microsecond, tick) }
	e.At(0, tick)
	return e
}

func TestEngineMaxEvents(t *testing.T) {
	e := runaway()
	e.SetBudget(Budget{MaxEvents: 1000})
	e.Run()
	if err := e.Err(); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Err = %v, want ErrBudgetExceeded", err)
	}
	if e.Steps() != 1000 {
		t.Errorf("steps = %d, want exactly 1000", e.Steps())
	}
}

func TestEngineDeadlineAlreadyPassed(t *testing.T) {
	e := runaway()
	e.SetBudget(Budget{Deadline: time.Now().Add(-time.Second)})
	e.Run()
	if err := e.Err(); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Err = %v, want ErrBudgetExceeded", err)
	}
	if e.Steps() != 0 {
		t.Errorf("steps = %d, want 0 (deadline was already passed)", e.Steps())
	}
}

func TestEngineStopFromWatchdog(t *testing.T) {
	e := runaway()
	go func() {
		time.Sleep(5 * time.Millisecond)
		e.Stop()
	}()
	done := make(chan struct{})
	go func() {
		e.Run()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after Stop")
	}
	if err := e.Err(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Err = %v, want ErrCanceled", err)
	}
}

// TestEngineStopFromHandler stops a run from inside its own event
// handler, partway through: the engine finishes that event, runs no
// other, and reports a cancellation at exactly that point.
func TestEngineStopFromHandler(t *testing.T) {
	e := &Engine{}
	var tick func()
	tick = func() {
		if e.Steps() == 500 {
			e.Stop()
		}
		e.After(simtime.Microsecond, tick)
	}
	e.At(0, tick)
	e.Run()
	if err := e.Err(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Err = %v, want ErrCanceled", err)
	}
	if e.Steps() != 500 || e.Pending() != 1 {
		t.Errorf("steps = %d, pending = %d; want 500 and 1", e.Steps(), e.Pending())
	}
	if want := "after 500 events"; !strings.Contains(e.Err().Error(), want) {
		t.Errorf("Err = %v, want it to say %q", e.Err(), want)
	}
}

func TestEngineNoBudgetDrainsNormally(t *testing.T) {
	e := &Engine{}
	n := 0
	for i := 0; i < 10; i++ {
		e.At(simtime.Time(i), func() { n++ })
	}
	e.Run()
	if e.Err() != nil || n != 10 {
		t.Fatalf("err = %v, executed = %d", e.Err(), n)
	}
}

// TestEngineMaxEventsCountsKeys runs a loop that reserves one key per
// popped event: the cap counts the keys from their reservation, so it
// halts after half as many pops.
func TestEngineMaxEventsCountsKeys(t *testing.T) {
	e := &Engine{}
	var tick func()
	tick = func() {
		e.Reserve(e.Now() + 3)
		e.After(simtime.Microsecond, tick)
	}
	e.At(0, tick)
	e.SetBudget(Budget{MaxEvents: 1000})
	e.Run()
	if err := e.Err(); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Err = %v, want ErrBudgetExceeded", err)
	}
	if e.Steps() != 1000 || e.Popped() != 500 {
		t.Errorf("Steps %d, Popped %d; want 1000 and 500", e.Steps(), e.Popped())
	}
}
