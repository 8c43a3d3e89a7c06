package des

import (
	"testing"

	"hpctradeoff/internal/simtime"
)

func TestEngineOrdering(t *testing.T) {
	var e Engine
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	// Same-time events run in scheduling order.
	e.At(20, func() { got = append(got, 22) })
	end := e.Run()
	if end != 30 {
		t.Errorf("final time = %v, want 30", end)
	}
	want := []int{1, 2, 22, 3}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Steps() != 4 {
		t.Errorf("Steps = %d, want 4", e.Steps())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	var e Engine
	var fired []simtime.Time
	e.At(5, func() {
		e.After(10, func() { fired = append(fired, e.Now()) })
		e.At(7, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 7 || fired[1] != 15 {
		t.Errorf("fired = %v, want [7 15]", fired)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	var e Engine
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEngineRunUntil(t *testing.T) {
	var e Engine
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(simtime.Time(i*10), func() { count++ })
	}
	n := e.RunUntil(50)
	if n != 5 || count != 5 {
		t.Errorf("RunUntil executed %d (count %d), want 5", n, count)
	}
	if e.Now() != 50 {
		t.Errorf("Now = %v, want 50", e.Now())
	}
	if e.Pending() != 5 {
		t.Errorf("Pending = %d, want 5", e.Pending())
	}
	e.Run()
	if count != 10 {
		t.Errorf("count = %d, want 10 after Run", count)
	}
	if e.PeakPending() != 10 {
		t.Errorf("PeakPending = %d, want 10: all ten events were queued at once", e.PeakPending())
	}
}

func TestEngineRunUntilAdvancesIdleClock(t *testing.T) {
	var e Engine
	e.RunUntil(1000)
	if e.Now() != 1000 {
		t.Errorf("Now = %v, want 1000", e.Now())
	}
}

// TestEngineKeysAndBatches checks the two ways an event escapes its
// pop. A reserved key takes the sequence number At would have given
// it, compares against Current as that event would have ordered, and,
// queued later with AtKey, pops exactly there. A batch runs its members
// in one pop. Steps counts every logical event, Popped only the pops.
func TestEngineKeysAndBatches(t *testing.T) {
	var e Engine
	var got []string
	var k, late Key
	e.At(10, func() {
		got = append(got, "a")
		if !e.Current().Before(k) || e.Current().Before(Key{}) {
			t.Errorf("Current %v must lie between the zero key and the reserved %v", e.Current(), k)
		}
		e.AtKey(late, func() { got = append(got, "late") })
	}) // seq 1
	k = e.Reserve(20)                                                // seq 2: never queued
	late = e.Reserve(30)                                             // seq 3: queued by the event at 10
	e.AtBatch(15, 3, func() { got = append(got, "b1", "b2", "b3") }) // seqs 4–6
	e.At(20, func() {
		got = append(got, "c")
		if e.Current().Before(k) {
			t.Errorf("key %v is still ahead of %v, which was scheduled after it", k, e.Current())
		}
	}) // seq 7
	e.At(30, func() { got = append(got, "d") }) // seq 8: after late, which reserved seq 3
	e.Run()
	want := []string{"a", "b1", "b2", "b3", "c", "late", "d"}
	if len(got) != len(want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ran %v, want %v", got, want)
		}
	}
	// Logical: a, k, late, b1–b3, c, d = 8. Popped: a, batch, c, late, d.
	if e.Steps() != 8 || e.Popped() != 5 {
		t.Errorf("Steps %d, Popped %d; want 8 and 5", e.Steps(), e.Popped())
	}
	if keyed := e.Steps() - e.Popped(); keyed != 3 {
		t.Errorf("keyed = %d, want 3 (one key never queued, two batch members)", keyed)
	}
}

func TestEngineAtKeyRejectsPassedKeys(t *testing.T) {
	var e Engine
	k := e.Reserve(5)
	e.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("queueing a key that is already behind the running event did not panic")
			}
		}()
		e.AtKey(k, func() {})
	})
	e.Run()
}
