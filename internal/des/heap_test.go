package des

import (
	"math/rand"
	"sort"
	"testing"

	"hpctradeoff/internal/simtime"
)

// less is the (at, seq) order as a plain comparison, so the tests can
// hold the Engine's eventQueue to a linear scan and to a sort.
func (e schedEvent) less(o schedEvent) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// TestQuadHeapPopsSortedOrder pushes a randomized workload (duplicate
// timestamps included) and checks pops come out in exact (at, seq)
// order — the determinism contract the Engine documents.
func TestQuadHeapPopsSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h eventQueue
	var ref []schedEvent
	var seq uint64
	for round := 0; round < 50; round++ {
		// Interleave pushes with pops to exercise sift-down on partially
		// drained heaps, not just a single fill-then-drain pass.
		for i := 0; i < 100; i++ {
			seq++
			ev := schedEvent{at: simtime.Time(rng.Intn(64)), seq: seq}
			h.push(ev)
			ref = append(ref, ev)
		}
		for i := 0; i < 30 && h.len() > 0; i++ {
			got := h.pop()
			want := popRef(&ref)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("round %d pop %d: got (at=%v seq=%d), want (at=%v seq=%d)",
					round, i, got.at, got.seq, want.at, want.seq)
			}
		}
	}
	for h.len() > 0 {
		got := h.pop()
		want := popRef(&ref)
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("drain: got (at=%v seq=%d), want (at=%v seq=%d)", got.at, got.seq, want.at, want.seq)
		}
	}
	if len(ref) != 0 {
		t.Fatalf("heap drained with %d reference events left", len(ref))
	}
}

// minRef returns the index of the (at, seq)-minimum of the reference
// slice, and popRef removes and returns that element — an O(n) oracle
// the heap must agree with.
func minRef(s []schedEvent) int {
	m := 0
	for i := 1; i < len(s); i++ {
		if s[i].less(s[m]) {
			m = i
		}
	}
	return m
}

func popRef(ref *[]schedEvent) schedEvent {
	s := *ref
	m := minRef(s)
	out := s[m]
	s[m] = s[len(s)-1]
	*ref = s[:len(s)-1]
	return out
}

// TestEventQueueMatchesPopRef drives the queue and the popRef oracle
// with the same random interleaving of pushes and pops — few distinct
// timestamps, so most comparisons fall through to seq — and requires
// every min and pop to agree element for element, and the whole pop
// sequence of each push-only/pop-only stretch to equal a sort by (at,
// seq). Pushes outnumber pops slightly, so depth drifts from empty up
// to the low thousands — the range campaigns run at.
func TestEventQueueMatchesPopRef(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		var ref []schedEvent
		var seq uint64
		var pending, popped []schedEvent
		var floor simtime.Time
		stamps := 1 + rng.Intn(16) // distinct timestamps in play
		// checkSorted holds a stretch of consecutive pops to the sorted
		// prefix of what was pending when the stretch began.
		checkSorted := func() {
			sort.Slice(pending, func(i, j int) bool { return pending[i].less(pending[j]) })
			for i, got := range popped {
				if want := pending[i]; got.at != want.at || got.seq != want.seq {
					t.Fatalf("seed %d: pop %d of a stretch is (at=%v seq=%d), sorted order has (at=%v seq=%d)",
						seed, i, got.at, got.seq, want.at, want.seq)
				}
			}
			pending = append(pending[:0], pending[len(popped):]...)
			popped = popped[:0]
		}
		for step := 0; step < 400; step++ {
			// A stretch of pushes, none below the last popped time (an
			// engine never schedules into the past)...
			for n := rng.Intn(48); n > 0; n-- {
				seq++
				ev := schedEvent{at: floor + simtime.Time(rng.Intn(stamps)), seq: seq}
				q.push(ev)
				ref = append(ref, ev)
				pending = append(pending, ev)
			}
			// ...then a stretch of pops.
			for n := rng.Intn(40); n > 0 && q.len() > 0; n-- {
				if m, r := q.min(), ref[minRef(ref)]; m.at != r.at || m.seq != r.seq {
					t.Fatalf("seed %d: min (at=%v seq=%d), oracle has (at=%v seq=%d)", seed, m.at, m.seq, r.at, r.seq)
				}
				got, want := q.pop(), popRef(&ref)
				if got.at != want.at || got.seq != want.seq {
					t.Fatalf("seed %d step %d: popped (at=%v seq=%d), oracle popped (at=%v seq=%d)",
						seed, step, got.at, got.seq, want.at, want.seq)
				}
				popped = append(popped, got)
				floor = got.at
			}
			if q.len() != len(ref) {
				t.Fatalf("seed %d: len %d, oracle %d", seed, q.len(), len(ref))
			}
			checkSorted()
		}
		for q.len() > 0 {
			got, want := q.pop(), popRef(&ref)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("seed %d drain: popped (at=%v seq=%d), oracle popped (at=%v seq=%d)",
					seed, got.at, got.seq, want.at, want.seq)
			}
			popped = append(popped, got)
		}
		checkSorted()
		if len(ref) != 0 || len(pending) != 0 {
			t.Fatalf("seed %d: queue drained with %d oracle and %d pending events left", seed, len(ref), len(pending))
		}
	}
}

// TestEventQueueSteadyStateAllocs pins the hold model's cost in
// allocations: once the backing array has grown to the working depth,
// a pop followed by a push allocates nothing.
func TestEventQueueSteadyStateAllocs(t *testing.T) {
	var q eventQueue
	fn := func() {}
	var seq uint64
	for i := 0; i < 256; i++ {
		seq++
		q.push(schedEvent{at: simtime.Time(i % 7), seq: seq, fn: fn})
	}
	allocs := testing.AllocsPerRun(1000, func() {
		ev := q.pop()
		seq++
		q.push(schedEvent{at: ev.at + 3, seq: seq, fn: fn})
	})
	if allocs != 0 {
		t.Errorf("pop+push at steady state allocates %.1f times, want 0", allocs)
	}
}

// TestQuadHeapMinMatchesPop checks min() previews exactly what pop()
// returns next.
func TestQuadHeapMinMatchesPop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h eventQueue
	for i := 0; i < 500; i++ {
		h.push(schedEvent{at: simtime.Time(rng.Intn(100)), seq: uint64(i)})
	}
	var prev schedEvent
	for i := 0; h.len() > 0; i++ {
		top := *h.min()
		got := h.pop()
		if got.at != top.at || got.seq != top.seq {
			t.Fatalf("pop %d returned (at=%v seq=%d), min previewed (at=%v seq=%d)",
				i, got.at, got.seq, top.at, top.seq)
		}
		if i > 0 && got.less(prev) {
			t.Fatalf("pop %d out of order: (at=%v seq=%d) after (at=%v seq=%d)",
				i, got.at, got.seq, prev.at, prev.seq)
		}
		prev = got
	}
}

// TestEngineFIFOAmongTies schedules many callbacks at the same instant
// and checks they run in scheduling order — the documented tie-break.
func TestEngineFIFOAmongTies(t *testing.T) {
	var e Engine
	const n = 200
	var order []int
	for i := 0; i < n; i++ {
		i := i
		e.At(simtime.Microsecond, func() { order = append(order, i) })
	}
	e.Run()
	if len(order) != n {
		t.Fatalf("ran %d callbacks, want %d", len(order), n)
	}
	if !sort.IntsAreSorted(order) {
		t.Errorf("same-timestamp callbacks ran out of scheduling order: %v", order[:10])
	}
}
