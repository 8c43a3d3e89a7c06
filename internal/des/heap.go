package des

import "math/bits"

// One pending-event set lives here: the Engine's eventQueue, which sits
// on every campaign path.
//
// It is a 4-ary min-heap over schedEvent with the (at, seq) comparison
// inlined into the sift loops, and it is concrete on purpose. A generic
// heap reaches its element's less method through the generic
// dictionary — an indirect, non-inlined call that copies two 24-byte
// events per comparison, about sixteen of them per pop — and swaps
// whole structs at every level. At the depths the p2p stencil campaigns
// run (a mean of 18–1,581 pending events per replay, typically 70–400;
// EXPERIMENTS.md has the table) that call overhead, not tree depth, was
// 43 % of a warm campaign's CPU. eventQueue compares inline, sifts
// through a hole (the moving element is held in a local and each level
// costs one store, not a three-store swap), and picks the smallest of
// four children with arithmetic instead of branches, which on
// effectively random sibling timestamps mispredict half the time. A
// calendar or ladder queue was not built: it pays off when depth sets
// the price, and on the stencils depth does not. On the all-to-all
// codes it did, because every packet in flight was an event here, and
// the packet models now keep those packets out of the queue instead.
//
// Four children per node give half the levels of a binary heap for a
// slightly wider sibling scan, the usual shape for DES queues, which
// are popped exactly as often as they are pushed. The order is total
// and deterministic — keys end in a unique sequence number — so pop
// order never depends on heap internals. That is what lets the Engine
// document "ties broken by scheduling order" as a guarantee, and what
// the property tests in heap_test.go hold the queue to against an O(n)
// linear-scan oracle.
//
// The queue holds only the events that order something, and of those
// only the ones that can be next. An event whose handler would merely
// flip state that a later observer can read off its key is never pushed
// (Engine.Reserve), and events due at one time under consecutive
// sequence numbers share one push (Engine.AtBatch), which takes about a
// third of all pops off a campaign (DESIGN.md §9, "Keys, not pops").
// A packet's next hop is a reserved key in its link's queue, and only
// each queue's head is pushed (DESIGN.md §9, "Link queues"): FT.B.x256
// packet replays average 123 pending events instead of 112,054. A key
// queued late (Engine.AtKey) keeps the sequence number it was reserved
// under, so the heap never sees an event out of its original order, and
// schedEvent stays 24 bytes. PeakPending records the deepest the queue
// got, at the cost of one compare per push.

// eventQueue is the Engine's pending-event set, ordered by (at, seq).
type eventQueue struct {
	items []schedEvent
	peak  int // the most events ever pending at once
}

func (q *eventQueue) len() int { return len(q.items) }

// min returns the earliest event without removing it. It must not be
// called on an empty queue.
func (q *eventQueue) min() *schedEvent { return &q.items[0] }

func (q *eventQueue) push(ev schedEvent) {
	q.items = append(q.items, ev)
	items := q.items
	if len(items) > q.peak {
		q.peak = len(items)
	}
	i := len(items) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if before(&items[p], &ev) != 0 {
			break
		}
		items[i] = items[p]
		i = p
	}
	items[i] = ev
}

// pop removes and returns the earliest event. It must not be called on
// an empty queue.
func (q *eventQueue) pop() schedEvent {
	items := q.items
	top := items[0]
	n := len(items) - 1
	last := items[n]
	items[n] = schedEvent{} // release the closure for GC
	items = items[:n]
	q.items = items
	if n == 0 {
		return top
	}
	// Sift last down from the root: the hole at i takes its smallest
	// child until last fits. The child is picked by a two-round
	// tournament whose results are 0 or 1 and combine into an index.
	i := 0
	for {
		c := i<<2 + 1
		if c+4 > n {
			break
		}
		kids := (*[4]schedEvent)(items[c : c+4])
		m01 := before(&kids[1], &kids[0])
		m23 := 2 + before(&kids[3], &kids[2])
		m := m01 ^ (m01^m23)&-before(&kids[m23&3], &kids[m01&1])
		if before(&kids[m&3], &last) == 0 {
			break
		}
		items[i] = kids[m&3]
		i = c + int(m)
	}
	// The last level may hold fewer than four children.
	if c := i<<2 + 1; c < n && c+4 > n {
		m := c
		for j := c + 1; j < n; j++ {
			if before(&items[j], &items[m]) != 0 {
				m = j
			}
		}
		if before(&items[m], &last) != 0 {
			items[i] = items[m]
			i = m
		}
	}
	items[i] = last
	return top
}

// before is 1 if a < b in (at, seq) order and 0 otherwise, computed as
// one 128-bit unsigned comparison: a borrow chain, no branch (times are
// never negative).
func before(a, b *schedEvent) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return borrow
}
