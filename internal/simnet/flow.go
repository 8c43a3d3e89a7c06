package simnet

import (
	"math"

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
// Progressive filling runs over route classes, not flows. Routes are
// memoised per node pair, so the many ranks of one node that talk to
// another node share one path, and max-min fairness treats flows on one
// path identically: they receive the same increment in every tier,
// freeze in the same tier, and take the same fair-share finish. A
// recompute therefore counts the live flows of each class while it
// advances and compacts them, fills the classes, and copies each class's
// rate to its flows. Only progress, compaction and that copy stay
// O(flows); the result is bit-identical to filling flow by flow
// (DESIGN.md §9, "Route classes"), which flow_ref_test.go holds it to.
type flowNet struct {
	eng  *des.Engine
	mach *machine.Config
	cfg  Config

	routes routeCache
	flows  []*flow // active flows, compacted on completion
	free   []*flow // completed flow objects recycled by Send
	stats  Stats

	// Per-link scratch state indexed by topology.LinkID, epoch-stamped
	// so recompute never clears the whole array.
	linkAvail []float64
	linkCount []int32
	linkEpoch []uint32
	epoch     uint32
	// bwOf caches per-link bandwidth.
	bwOf []float64

	// classes holds per-route-class solver state, indexed by route id
	// and epoch-stamped like the links. active lists the classes with
	// live flows in the current recompute, unfrozen the subset still
	// being filled (both scratch, rebuilt each recompute).
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

type flow struct {
	path      []topology.LinkID
	route     int32   // route id: the flow's class in progressive filling
	remaining float64 // bytes
	rate      float64 // bytes/s
	updated   simtime.Time
	tail      simtime.Time // propagation latency appended after drain
	onDone    func()
}

// routeClass is the solver state of the live flows sharing one route.
type routeClass struct {
	epoch  uint32
	n      int32   // live flows on the route
	minRem float64 // smallest remaining byte count among them
	rate   float64 // the rate every one of them receives
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
	fl := f.getFlow()
	fl.path, fl.route, fl.remaining, fl.rate = path, route, float64(bytes), 0
	fl.updated, fl.tail, fl.onDone = f.eng.Now(), latency, onDelivered
	f.flows = append(f.flows, fl)
	f.requestRecompute()
}

// getFlow takes a flow object from the free-list or allocates one; a
// steady message stream recycles its flow objects instead of leaving
// one garbage struct per message.
func (f *flowNet) getFlow() *flow {
	if n := len(f.free); n > 0 {
		fl := f.free[n-1]
		f.free = f.free[:n-1]
		return fl
	}
	return &flow{}
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

// solve advances every flow's progress to now, completes drained flows,
// recomputes max-min fair rates by progressive filling over route
// classes, and returns the earliest completion time (Forever if no flow
// is draining).
func (f *flowNet) solve(now simtime.Time) simtime.Time {
	if n := len(f.routes.paths); len(f.classes) < n {
		f.classes = append(f.classes, make([]routeClass, n-len(f.classes))...)
	}
	f.epoch++
	f.active = f.active[:0]

	// Advance progress and complete drained flows, compacting in place;
	// count each route class's live flows and their least remaining.
	live := f.flows[:0]
	for _, fl := range f.flows {
		if fl.rate > 0 {
			fl.remaining -= fl.rate * (now - fl.updated).Seconds()
		}
		fl.updated = now
		if fl.remaining <= 0.5 { // sub-byte residue is numeric noise
			f.eng.After(fl.tail, fl.onDone)
			fl.path, fl.onDone = nil, nil
			f.free = append(f.free, fl)
			continue
		}
		live = append(live, fl)
		c := &f.classes[fl.route]
		if c.epoch != f.epoch {
			*c = routeClass{epoch: f.epoch, n: 1, minRem: fl.remaining}
			f.active = append(f.active, fl.route)
		} else {
			c.n++
			if fl.remaining < c.minRem {
				c.minRem = fl.remaining
			}
		}
	}
	for i := len(live); i < len(f.flows); i++ {
		f.flows[i] = nil
	}
	f.flows = live
	if len(f.flows) == 0 {
		return simtime.Forever
	}

	// Progressive filling (max-min fairness): raise all unfrozen classes'
	// rates uniformly until a link saturates, freeze the classes crossing
	// it, repeat. Link state is epoch-stamped scratch; a link's count is
	// the number of unfrozen flows crossing it.
	f.activeLinks = f.activeLinks[:0]
	for _, r := range f.active {
		n := f.classes[r].n
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
			for _, l := range path {
				f.linkCount[l] -= c.n
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

	for _, fl := range f.flows {
		fl.rate = f.classes[fl.route].rate
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
