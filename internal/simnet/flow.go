package simnet

import (
	"cmp"
	"math"
	"slices"

	"hpctradeoff/internal/des"
	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/topology"
)

// flowNet is the flow-level (fluid) model: each message is a flow that
// traverses its path as a fluid, sharing every link's bandwidth
// max-min-fairly with the competing flows. Whenever flows start or
// finish, the rates of all active flows are recomputed — the "ripple
// effect" that makes fluid simulation expensive under churn, which the
// paper (citing Liu et al.) identifies as the flow model's cost.
//
// Rate recomputations triggered at the same instant (e.g. a halo
// exchange posting thousands of flows in one event round) are coalesced
// into a single progressive-filling pass.
//
// A recompute works on route classes, not flows. Routes are memoised
// per node pair, so the many ranks of one node that talk to another
// node share one path, and max-min fairness treats flows on one path
// identically: they receive the same increment in every tier, freeze
// in the same tier, and take the same fair-share finish. Every member
// of a class therefore drains at the class rate, and every live flow
// was last advanced at the previous recompute, so a class's progress
// is one decrement shared by all its members. A class keeps its
// members' remaining bytes as a column: a recompute subtracts the
// decrement over it, touches a member only where one completes, fills
// the classes, and reads each class's earliest completion off its
// least remaining. The result is bit-identical to advancing and
// filling flow by flow (DESIGN.md §9, "Route classes"), which
// flow_ref_test.go holds it to.
type flowNet struct {
	eng  *des.Engine
	mach *machine.Config
	cfg  Config

	routes routeCache
	// pending holds the flows sent since the last recompute, in Send
	// order. They have no rate yet and join their classes there.
	pending []*flow
	free    []*flow // completed flow objects recycled by Send
	done    []*flow // scratch: the flows one recompute completes
	sent    uint64  // flows sent so far: the next flow's id
	// solved is the last recompute's time, up to which every live flow
	// has been advanced.
	solved simtime.Time
	stats  Stats

	// Per-link scratch state indexed by topology.LinkID, epoch-stamped
	// so recompute never clears the whole array.
	linkAvail []float64
	linkCount []int32
	linkEpoch []uint32
	epoch     uint32
	// bwOf caches per-link bandwidth.
	bwOf []float64

	// classes holds per-route-class state, indexed by route id. active
	// lists the classes with live flows, unfrozen the subset still being
	// filled (scratch, rebuilt each recompute).
	classes  []routeClass
	active   []int32
	unfrozen []int32

	// recomputeAt coalesces recompute requests within a small quantum;
	// version stamps invalidate stale completion timers.
	recomputePending bool
	version          int64
	// activeLinks lists the links touched by the current flow set
	// (scratch, rebuilt each recompute).
	activeLinks []topology.LinkID
}

// recomputeQuantum batches flow-set changes that occur within a couple
// of microseconds into one rate recomputation. The timing error is
// bounded by the quantum, which is on the order of the network's α.
const recomputeQuantum = 2 * simtime.Microsecond

// flow is one message in flight. Its remaining bytes live in its
// class's column once it has joined it.
type flow struct {
	route     int32        // route id: the flow's class
	id        uint64       // Send order, the order completions are scheduled in
	remaining float64      // bytes, until the flow joins its class
	tail      simtime.Time // propagation latency appended after drain
	onDone    func()
}

// routeClass is the state of the live flows sharing one route, as
// columns in Send order.
type routeClass struct {
	rems   []float64 // each member's remaining bytes
	fls    []*flow
	minRem float64 // the least of rems
	rate   float64 // the rate every member receives
}

func newFlowNet(eng *des.Engine, mach *machine.Config, cfg Config) *flowNet {
	n := mach.Topo.NumLinks()
	return &flowNet{
		eng:       eng,
		mach:      mach,
		cfg:       cfg,
		routes:    newRouteCache(mach),
		linkAvail: make([]float64, n),
		linkCount: make([]int32, n),
		linkEpoch: make([]uint32, n),
		bwOf:      linkBandwidths(mach),
	}
}

// Model implements Network.
func (f *flowNet) Model() Model { return Flow }

// Stats implements Network.
func (f *flowNet) Stats() Stats { return f.stats }

// Send implements Network.
func (f *flowNet) Send(src, dst int32, bytes int64, onDelivered func()) {
	f.stats.Messages++
	f.stats.BytesSent += bytes
	srcNode, dstNode := f.mach.NodeOf[src], f.mach.NodeOf[dst]
	if srcNode == dstNode {
		f.eng.After(loopback(bytes, f.cfg, f.mach), onDelivered)
		return
	}
	path, route := f.routes.get(int(srcNode), int(dstNode))
	latency := 2*f.mach.NICLatency + simtime.Time(len(path))*f.mach.LinkLatency
	if bytes <= 0 {
		f.eng.After(latency, onDelivered)
		return
	}
	f.add(route, float64(bytes), latency, onDelivered)
	f.requestRecompute()
}

// add starts a flow of the given bytes on a route; it joins its class
// at the next recompute.
func (f *flowNet) add(route int32, bytes float64, tail simtime.Time, onDone func()) {
	var fl *flow
	if n := len(f.free); n > 0 {
		fl = f.free[n-1]
		f.free = f.free[:n-1]
	} else {
		fl = &flow{}
	}
	f.sent++
	fl.route, fl.id, fl.remaining, fl.tail, fl.onDone = route, f.sent, bytes, tail, onDone
	f.pending = append(f.pending, fl)
}

// requestRecompute schedules one recompute within the coalescing
// quantum, batching all flow-set changes issued in the meantime.
func (f *flowNet) requestRecompute() {
	if f.recomputePending {
		return
	}
	f.recomputePending = true
	f.version++
	f.eng.After(recomputeQuantum, func() {
		f.recomputePending = false
		f.recompute()
	})
}

// recompute brings every flow up to now, re-solves the rates, and
// schedules the next completion event.
func (f *flowNet) recompute() {
	now := f.eng.Now()
	f.stats.FlowUpdates++
	next := f.solve(now)
	if next == simtime.Forever {
		return
	}
	// Nudge the earliest completion forward by a small grain (1% of the
	// shortest remaining drain, ≤ 50 µs) so the thousands of
	// near-symmetric flows a halo exchange or an all-to-all storm
	// creates complete in batches instead of one recompute each. The
	// per-flow timing error is bounded by the grain.
	grain := (next - now) / 100
	if grain > 50*simtime.Microsecond {
		grain = 50 * simtime.Microsecond
	}
	next += grain
	f.version++
	v := f.version
	f.eng.At(next, func() {
		if v == f.version && !f.recomputePending {
			f.recompute()
		}
	})
}

// solve advances every class's progress to now, completes drained
// flows, lets the pending flows join their classes, recomputes max-min
// fair rates by progressive filling over the classes, and returns the
// earliest completion time (Forever if no flow is draining).
func (f *flowNet) solve(now simtime.Time) simtime.Time {
	if n := len(f.routes.paths); len(f.classes) < n {
		f.classes = append(f.classes, make([]routeClass, n-len(f.classes))...)
	}
	dt := (now - f.solved).Seconds()
	f.solved = now

	// Advance each class at the rate it was given last time, which the
	// filling below overwrites, and drop the classes left empty.
	kept := f.active[:0]
	for _, r := range f.active {
		c := &f.classes[r]
		if c.rate > 0 {
			f.advance(c, float64(c.rate*dt))
		}
		if len(c.rems) > 0 {
			kept = append(kept, r)
		}
	}
	f.active = kept
	for _, fl := range f.pending {
		if fl.remaining <= 0.5 {
			f.done = append(f.done, fl)
			continue
		}
		c := &f.classes[fl.route]
		if len(c.rems) == 0 {
			f.active = append(f.active, fl.route)
			c.minRem = fl.remaining
		} else if fl.remaining < c.minRem {
			c.minRem = fl.remaining
		}
		c.rems = append(c.rems, fl.remaining)
		c.fls = append(c.fls, fl)
	}
	clear(f.pending)
	f.pending = f.pending[:0]
	// Deliver the completed flows in Send order: completions at one
	// time pop in the order they are scheduled.
	if len(f.done) > 0 {
		slices.SortFunc(f.done, func(a, b *flow) int { return cmp.Compare(a.id, b.id) })
		for _, fl := range f.done {
			f.eng.After(fl.tail, fl.onDone)
			fl.onDone = nil
			f.free = append(f.free, fl)
		}
		clear(f.done)
		f.done = f.done[:0]
	}
	if len(f.active) == 0 {
		return simtime.Forever
	}

	// Progressive filling (max-min fairness): raise all unfrozen classes'
	// rates uniformly until a link saturates, freeze the classes crossing
	// it, repeat. Link state is epoch-stamped scratch; a link's count is
	// the number of unfrozen flows crossing it.
	f.epoch++
	f.activeLinks = f.activeLinks[:0]
	for _, r := range f.active {
		c := &f.classes[r]
		c.rate = 0
		n := int32(len(c.rems))
		for _, l := range f.routes.paths[r] {
			if f.linkEpoch[l] != f.epoch {
				f.linkEpoch[l] = f.epoch
				f.linkAvail[l] = f.bwOf[l]
				f.linkCount[l] = 0
				f.activeLinks = append(f.activeLinks, l)
			}
			f.linkCount[l] += n
		}
	}
	f.unfrozen = append(f.unfrozen[:0], f.active...)
	// Progressive filling runs at most maxFillTiers bottleneck tiers
	// exactly; any classes still unfrozen then receive their current
	// fair share (avail/count on their own bottleneck) in one pass.
	// Heterogeneous all-to-all traffic can otherwise produce thousands
	// of distinct tiers, each an O(classes·path) pass.
	const maxFillTiers = 6
	for tier := 0; len(f.unfrozen) > 0 && tier < maxFillTiers; tier++ {
		// Bottleneck share: min over links carrying unfrozen flows.
		delta := math.Inf(1)
		for _, l := range f.activeLinks {
			if c := f.linkCount[l]; c > 0 {
				if s := f.linkAvail[l] / float64(c); s < delta {
					delta = s
				}
			}
		}
		if math.IsInf(delta, 1) {
			break
		}
		if delta < 0 {
			delta = 0
		}
		// Consume the uniform increment once per unfrozen flow on every
		// link. The subtractions are all of the same delta, so doing a
		// link's in one run rounds exactly as interleaving them flow by
		// flow does, and subRepeated does the run in closed form.
		for _, l := range f.activeLinks {
			f.linkAvail[l] = subRepeated(f.linkAvail[l], delta, f.linkCount[l])
		}
		// Raise the unfrozen classes' rates, then freeze the classes
		// crossing saturated links.
		kept := f.unfrozen[:0]
		for _, r := range f.unfrozen {
			c := &f.classes[r]
			c.rate += delta
			path := f.routes.paths[r]
			saturated := false
			for _, l := range path {
				if f.linkAvail[l] <= 1e-6*f.bwOf[l] {
					saturated = true
					break
				}
			}
			if !saturated {
				kept = append(kept, r)
				continue
			}
			n := int32(len(c.rems))
			for _, l := range path {
				f.linkCount[l] -= n
			}
		}
		froze := len(kept) < len(f.unfrozen)
		f.unfrozen = kept
		if !froze {
			break // numeric stall; the fair-share pass finishes below
		}
	}
	// Fair-share finish: every remaining class takes avail/count on its
	// most constrained link. Flows sharing a link split its residue
	// evenly, so capacity is never oversubscribed.
	for _, r := range f.unfrozen {
		share := math.Inf(1)
		for _, l := range f.routes.paths[r] {
			if c := f.linkCount[l]; c > 0 {
				if s := f.linkAvail[l] / float64(c); s < share {
					share = s
				}
			}
		}
		if !math.IsInf(share, 1) && share > 0 {
			f.classes[r].rate += share
		}
	}

	// The earliest completion is the earliest over classes of the class's
	// least remaining drained at the class rate: the per-flow time is a
	// monotone function of remaining, so its minimum is attained there.
	next := simtime.Forever
	for _, r := range f.active {
		c := &f.classes[r]
		if c.rate <= 0 {
			continue
		}
		t := now + simtime.FromSeconds(c.minRem/c.rate)
		if t <= now {
			t = now + 1
		}
		next = simtime.Min(next, t)
	}
	return next
}

// advance drains d bytes from every member of c, moving the ones left
// with at most half a byte (numeric noise) to f.done. A rounded
// subtraction of the same d is monotone, so fl(minRem − d) is the new
// least remaining: while it stays above half a byte, no member
// completes and the column needs neither a test nor a scan.
func (f *flowNet) advance(c *routeClass, d float64) {
	rems := c.rems
	if m := c.minRem - d; m > 0.5 {
		for i := range rems {
			rems[i] -= d
		}
		c.minRem = m
		return
	}
	fls := c.fls
	k := 0
	for i, r := range rems {
		r -= d
		if r <= 0.5 {
			f.done = append(f.done, fls[i])
			continue
		}
		if k == 0 || r < c.minRem {
			c.minRem = r
		}
		rems[k], fls[k] = r, fls[i]
		k++
	}
	clear(fls[k:])
	c.rems, c.fls = rems[:k], fls[:k]
}

// subRepeated returns x after k subtractions of delta, each rounded,
// bit for bit what the loop
//
//	for ; k > 0; k-- {
//		x -= delta
//	}
//
// computes, in a handful of flops per binade instead of one per step.
// While x is a positive normal number in the binade [b, 2b), with ulp
// u, a step whose exact result x − delta is still ≥ b rounds to a
// multiple of u, and it moves x by the same amount s every time — unless
// delta is an odd multiple of u/2: then each result is a tie, rounded
// to even, and the step depends on x. So a run of j such steps is the
// exact x − j·s, one fused multiply-subtract. The step that leaves the
// binade, ties, zero, negatives, subnormals and short runs (k ≤ 16) go
// one subtraction at a time. flow_closed_test.go holds it to the loop.
func subRepeated(x, delta float64, k int32) float64 {
	if k <= 16 {
		for ; k > 0; k-- {
			x -= delta
		}
		return x
	}
	for k > 0 {
		if x >= 0x1p-1000 && x <= math.MaxFloat64 && delta > 0 {
			b := math.Float64frombits(math.Float64bits(x) &^ (1<<52 - 1))
			// x − b is exact, so this is the exact x − delta ≥ b.
			if x-b >= delta && !roundsToTie(delta, b) {
				s := x - (x - delta)
				j := stepsInBinade(x, b, s, delta, k)
				x = math.FMA(-float64(j), s, x)
				k -= j
				continue
			}
		}
		x -= delta
		k--
	}
	return x
}

// roundsToTie reports whether delta is an odd multiple of half the ulp
// of the binade [b, 2b): subtracting it from any x there lands exactly
// halfway between two neighbours.
func roundsToTie(delta, b float64) bool {
	t := delta / (b * 0x1p-53) // exact: a division by a power of two
	return t < 0x1p53 && t == math.Floor(t) && int64(t)&1 == 1
}

// stepsInBinade returns how many of the next k subtractions of delta
// from x, each moving x by s, keep an exact result of at least b: the
// largest j ≤ k with x − (j−1)·s − delta ≥ b, which the caller has
// checked for j = 1. A float estimate of j is corrected against the
// exact condition.
func stepsInBinade(x, b, s, delta float64, k int32) int32 {
	if s == 0 {
		return k
	}
	// stays reports whether step i (from x − i·s) keeps its result at
	// least b. x − i·s is exact whenever it is ≥ b (a multiple of u below
	// 2b), and then so is its difference from b; a smaller exact value
	// rounds to at most b and fails the second test.
	stays := func(i int32) bool {
		y := math.FMA(-float64(i), s, x)
		return y >= b && y-b >= delta
	}
	i := k - 1
	if est := (x - b - delta) / s; est < float64(k-1) {
		i = int32(est)
	}
	for i+1 < k && stays(i+1) {
		i++
	}
	for !stays(i) {
		i--
	}
	return i + 1
}
