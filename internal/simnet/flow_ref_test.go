package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hpctradeoff/internal/des"
	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/topology"
)

// refNet is the per-flow reference's own state: its flows, in Send
// order, carrying their rates and last-update times, and a flowNet for
// the engine, the bandwidths and the link scratch state.
type refNet struct {
	*flowNet
	flows []*refFlow // active flows, compacted on completion
	free  []*refFlow
}

// refFlow is a flow as the reference keeps it.
type refFlow struct {
	path      []topology.LinkID
	remaining float64 // bytes
	rate      float64 // bytes/s
	updated   simtime.Time
	tail      simtime.Time
	onDone    func()
	id        uint64 // for the differential only
}

// refSolve is the flow model's rate solver as it was before progressive
// filling moved to route classes: every pass walks every flow. It is
// kept verbatim, except that the per-flow frozen flags live in a local
// slice and the earliest completion is returned instead of scheduled,
// as the reference flowNet.solve is held to bit for bit.
func refSolve(f *refNet, now simtime.Time) simtime.Time {
	// Advance progress and complete drained flows, compacting in place.
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
		} else {
			live = append(live, fl)
		}
	}
	for i := len(live); i < len(f.flows); i++ {
		f.flows[i] = nil
	}
	f.flows = live
	if len(f.flows) == 0 {
		return simtime.Forever
	}

	// Progressive filling (max-min fairness): raise all unfrozen flows'
	// rates uniformly until a link saturates, freeze the flows crossing
	// it, repeat. Link state is epoch-stamped scratch.
	f.epoch++
	f.activeLinks = f.activeLinks[:0]
	touch := func(id topology.LinkID) {
		if f.linkEpoch[id] != f.epoch {
			f.linkEpoch[id] = f.epoch
			f.linkAvail[id] = f.bwOf[id]
			f.linkCount[id] = 0
			f.activeLinks = append(f.activeLinks, id)
		}
	}
	frozen := make([]bool, len(f.flows))
	for _, fl := range f.flows {
		fl.rate = 0
		for _, l := range fl.path {
			touch(l)
			f.linkCount[l]++
		}
	}
	const maxFillTiers = 6
	unfrozen := len(f.flows)
	for tier := 0; unfrozen > 0 && tier < maxFillTiers; tier++ {
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
		// Consume the uniform increment on every link with unfrozen
		// flows, then freeze flows crossing saturated links.
		for i, fl := range f.flows {
			if frozen[i] {
				continue
			}
			fl.rate += delta
			for _, l := range fl.path {
				f.linkAvail[l] -= delta
			}
		}
		froze := false
		for i, fl := range f.flows {
			if frozen[i] {
				continue
			}
			saturated := false
			for _, l := range fl.path {
				if f.linkAvail[l] <= 1e-6*f.bwOf[l] {
					saturated = true
					break
				}
			}
			if saturated {
				frozen[i] = true
				froze = true
				unfrozen--
				for _, l := range fl.path {
					f.linkCount[l]--
				}
			}
		}
		if !froze {
			break // numeric stall; the fair-share pass finishes below
		}
	}
	if unfrozen > 0 {
		// Fair-share finish: every remaining flow takes avail/count on
		// its most constrained link. Flows sharing a link split its
		// residue evenly, so capacity is never oversubscribed.
		for i, fl := range f.flows {
			if frozen[i] {
				continue
			}
			share := math.Inf(1)
			for _, l := range fl.path {
				if c := f.linkCount[l]; c > 0 {
					if s := f.linkAvail[l] / float64(c); s < share {
						share = s
					}
				}
			}
			if !math.IsInf(share, 1) && share > 0 {
				fl.rate += share
			}
		}
	}

	next := simtime.Forever
	for _, fl := range f.flows {
		if fl.rate <= 0 {
			continue
		}
		t := now + simtime.FromSeconds(fl.remaining/fl.rate)
		if t <= now {
			t = now + 1
		}
		next = simtime.Min(next, t)
	}
	return next
}

// flowDiffCase is one randomized scenario of the solver differential.
type flowDiffCase struct {
	machine string
	ranks   int
	flows   int  // flows added in the first round
	routes  int  // distinct node pairs the flows are drawn from
	scale   bool // heterogeneous per-link bandwidth
	patho   bool // negative and subnormal link scales: delta < 0, stalls
}

// TestFlowSolverMatchesPerFlowReference drives the route-class solver
// and the per-flow reference over identical flow sets, round after
// round (progress, completions and arrivals in between), and demands
// bit-equal per-flow rates, remaining bytes and next completion time,
// and the same order of onDone calls.
func TestFlowSolverMatchesPerFlowReference(t *testing.T) {
	var cases []flowDiffCase
	for _, m := range []string{"cielito", "hopper", "edison"} {
		for _, n := range []int{1, 7, 150, 3000} {
			for _, routes := range []int{1, 4, 300} {
				cases = append(cases, flowDiffCase{machine: m, ranks: 256, flows: n, routes: routes})
			}
		}
		cases = append(cases,
			flowDiffCase{machine: m, ranks: 256, flows: 800, routes: 6, scale: true},
			flowDiffCase{machine: m, ranks: 256, flows: 2000, routes: 200, scale: true},
			flowDiffCase{machine: m, ranks: 256, flows: 400, routes: 30, scale: true, patho: true},
			flowDiffCase{machine: m, ranks: 64, flows: 1500, routes: 3, patho: true},
		)
	}
	for i, c := range cases {
		name := fmt.Sprintf("%s/flows=%d/routes=%d/scale=%v/patho=%v", c.machine, c.flows, c.routes, c.scale, c.patho)
		t.Run(name, func(t *testing.T) { runFlowDiff(t, c, int64(1000+i)) })
	}
}

func runFlowDiff(t *testing.T, c flowDiffCase, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	mach, err := machine.New(c.machine, c.ranks, 0)
	if err != nil {
		t.Fatal(err)
	}
	nodes := int32(mach.Topo.Nodes())
	pairs := make([][2]int32, c.routes)
	for i := range pairs {
		src := rng.Int31n(nodes)
		dst := (src + 1 + rng.Int31n(nodes-1)) % nodes
		pairs[i] = [2]int32{src, dst}
	}
	if c.scale || c.patho {
		scale := make([]float64, mach.Topo.NumLinks())
		for id := range scale {
			scale[id] = 0.3 + 1.4*rng.Float64()
		}
		if c.patho {
			// Out of machine.Validate's range on purpose, on one link of
			// every other route: a negative scale drives delta below
			// zero, and a subnormal one yields a zero delta that
			// saturates nothing (the no-freeze stall).
			for i, p := range pairs {
				path := mach.Topo.Route(nil, int(p[0]), int(p[1]))
				switch l := path[rng.Intn(len(path))]; i % 4 {
				case 0:
					scale[l] = -0.5
				case 2:
					scale[l] = 5e-324
				}
			}
		}
		mach.LinkBWScale = scale
	}

	var engA, engB des.Engine
	a := newFlowNet(&engA, mach, Config{}.withDefaults(Flow))
	b := &refNet{flowNet: newFlowNet(&engB, mach, Config{}.withDefaults(Flow))}
	// Each side logs the ids of its flows in the order their onDone
	// calls run.
	var doneA, doneB []uint64
	now := simtime.Time(0)
	var id uint64
	add := func(n int) {
		for k := 0; k < n; k++ {
			p := pairs[rng.Intn(len(pairs))]
			var rem float64
			switch rng.Intn(6) {
			case 0:
				rem = 0.5 + rng.Float64()*1.5 // near-drained
			case 1:
				rem = rng.Float64() * 0.5 // drained on arrival
			default:
				rem = math.Ldexp(1+rng.Float64(), 6+rng.Intn(20))
			}
			id++
			fid := id
			_, route := a.routes.get(int(p[0]), int(p[1]))
			a.add(route, rem, 0, func() { doneA = append(doneA, fid) })
			if a.pending[len(a.pending)-1].id != fid {
				t.Fatalf("flow %d got id %d", fid, a.pending[len(a.pending)-1].id)
			}
			path, _ := b.routes.get(int(p[0]), int(p[1]))
			b.flows = append(b.flows, &refFlow{path: path, remaining: rem, updated: now,
				onDone: func() { doneB = append(doneB, fid) }, id: fid})
		}
	}

	add(c.flows)
	for round := 0; round < 8; round++ {
		engA.RunUntil(now)
		engB.RunUntil(now)
		nextA := a.solve(now)
		nextB := refSolve(b, now)
		engA.RunUntil(now)
		engB.RunUntil(now)
		if nextA != nextB {
			t.Fatalf("round %d: next completion %d, reference %d", round, nextA, nextB)
		}
		if !slices.Equal(doneA, doneB) {
			t.Fatalf("round %d: flows completed in order %v, reference %v", round, doneA, doneB)
		}
		// Every live flow's rate is its class's; its remaining bytes
		// are in the class's column.
		type state struct{ rate, remaining float64 }
		live := make(map[uint64]state)
		for _, r := range a.active {
			cl := &a.classes[r]
			for i, fl := range cl.fls {
				live[fl.id] = state{cl.rate, cl.rems[i]}
			}
		}
		if len(live) != len(b.flows) {
			t.Fatalf("round %d: %d live flows, reference %d", round, len(live), len(b.flows))
		}
		for _, fb := range b.flows {
			fa, ok := live[fb.id]
			if !ok {
				t.Fatalf("round %d: flow %d is live only in the reference", round, fb.id)
			}
			if math.Float64bits(fa.rate) != math.Float64bits(fb.rate) ||
				math.Float64bits(fa.remaining) != math.Float64bits(fb.remaining) {
				t.Fatalf("round %d flow %d: rate %v remaining %v, reference rate %v remaining %v",
					round, fb.id, fa.rate, fa.remaining, fb.rate, fb.remaining)
			}
		}
		// Step to just past the next completion (or a random while), so
		// some flows drain and others keep going; then more arrive.
		step := simtime.Time(1 + rng.Int63n(int64(50*simtime.Microsecond)))
		if nextA < simtime.Forever && rng.Intn(2) == 0 {
			step = nextA - now + simtime.Time(rng.Int63n(int64(simtime.Microsecond)))
		}
		now += step
		add(rng.Intn(1 + c.flows/4))
	}
	if len(doneA) == 0 {
		t.Fatalf("no flow completed in 8 rounds")
	}
}
