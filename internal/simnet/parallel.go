package simnet

import (
	"fmt"
	"sync/atomic"

	"hpctradeoff/internal/des"
	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/topology"
)

// ParallelPacket is a packet-level network simulation on the
// conservative (Chandy–Misra–Bryant) parallel engine — the
// architecture SST/Macro's PDES core uses for large-scale runs. Every
// router is an actor owning the occupancy state of its outgoing links;
// packets hop between actors as timestamped messages, and the engine's
// lookahead is the link latency.
//
// It simulates preloaded synthetic traffic (the trace-replay driver is
// coupled to the sequential engine); inject all messages, then Run.
type ParallelPacket struct {
	par  *des.Parallel
	mach *machine.Config
	cfg  Config
	bwOf []float64 // per-link bandwidth, read-only once built

	actorOf   map[int32]des.ActorID // topology element → actor
	delivered atomic.Int64
	makespan  atomic.Int64 // latest delivery, in ticks
	packets   int64
	started   bool
}

// routerActor owns the busy-until state of the links departing one
// topology element.
type routerActor struct {
	net  *ParallelPacket
	self des.ActorID
	busy map[topology.LinkID]simtime.Time
}

// pktHop is the message: a packet arriving at path[idx]. remaining is
// the message's undelivered-packet counter, shared by its packets.
// One pktHop is allocated per packet at injection and rides the whole
// path as a pointer (idx advancing in place): exactly one event
// references it at any time, and passing a pointer through the
// engine's `any` message slot does not allocate, where a struct copy
// would box on every hop.
type pktHop struct {
	path      []topology.LinkID
	size      int64
	idx       int
	remaining *atomic.Int64
}

// NewParallelPacket builds the actor graph over numLPs logical
// processes. The engine lookahead is the machine's link latency, which
// must be positive.
func NewParallelPacket(mach *machine.Config, cfg Config, numLPs int) (*ParallelPacket, error) {
	if mach.LinkLatency <= 0 {
		return nil, fmt.Errorf("simnet: parallel packet needs positive link latency for lookahead")
	}
	par, err := des.NewParallel(numLPs, mach.LinkLatency)
	if err != nil {
		return nil, err
	}
	pp := &ParallelPacket{
		par:     par,
		mach:    mach,
		cfg:     cfg.withDefaults(Packet),
		bwOf:    linkBandwidths(mach),
		actorOf: make(map[int32]des.ActorID),
	}
	// One actor per distinct link-owning element, round-robin over LPs.
	topo := mach.Topo
	lp := 0
	for id := 0; id < topo.NumLinks(); id++ {
		owner := pp.ownerElem(topology.LinkID(id))
		if _, ok := pp.actorOf[owner]; !ok {
			a := &routerActor{net: pp, busy: make(map[topology.LinkID]simtime.Time)}
			a.self = par.AddActor(a, lp%numLPs)
			pp.actorOf[owner] = a.self
			lp++
		}
	}
	return pp, nil
}

// ownerElem returns the element whose actor owns a link's occupancy:
// the element the link departs from, except injection links, which are
// owned by the router they enter (nodes are not actors).
func (pp *ParallelPacket) ownerElem(id topology.LinkID) int32 {
	l := pp.mach.Topo.Link(id)
	if l.Kind == topology.Injection {
		return l.To
	}
	return l.From
}

// Inject schedules a message from rank src to rank dst at the given
// time. Must be called before Run. Same-node messages are counted as
// delivered immediately (no network traversal).
func (pp *ParallelPacket) Inject(at simtime.Time, src, dst int32, bytes int64) {
	if pp.started {
		panic("simnet: Inject after Run")
	}
	srcNode, dstNode := pp.mach.NodeOf[src], pp.mach.NodeOf[dst]
	if srcNode == dstNode {
		pp.delivered.Add(1)
		return
	}
	path := pp.mach.Topo.Route(nil, int(srcNode), int(dstNode))
	n := int((bytes + pp.cfg.PacketBytes - 1) / pp.cfg.PacketBytes)
	if n == 0 {
		n = 1
	}
	last := bytes - int64(n-1)*pp.cfg.PacketBytes
	remaining := &atomic.Int64{}
	remaining.Store(int64(n))
	for i := 0; i < n; i++ {
		size := pp.cfg.PacketBytes
		if i == n-1 {
			size = max(last, 1)
		}
		pp.packets++
		first := pp.actorOf[pp.ownerElem(path[0])]
		pp.par.ScheduleInitial(first, at+pp.mach.NICLatency, &pktHop{path: path, size: size, remaining: remaining})
	}
}

// Run executes the simulation to quiescence and returns the makespan
// (latest delivery time). When a budget or Stop cut the run short, Err
// reports the typed reason and the makespan covers only the executed
// prefix.
func (pp *ParallelPacket) Run() simtime.Time {
	pp.started = true
	pp.par.Run()
	return simtime.Time(pp.makespan.Load())
}

// SetBudget bounds the run (see des.Budget). Must be called before Run.
func (pp *ParallelPacket) SetBudget(b des.Budget) { pp.par.SetBudget(b) }

// Stop cooperatively cancels the run from any goroutine.
func (pp *ParallelPacket) Stop() { pp.par.Stop() }

// Err reports why Run stopped early (wrapping des.ErrBudgetExceeded or
// des.ErrCanceled), or nil after a complete run.
func (pp *ParallelPacket) Err() error { return pp.par.Err() }

// Delivered returns the number of delivered messages (counting each
// injected message once; multi-packet messages count per packet).
func (pp *ParallelPacket) Delivered() int64 { return pp.delivered.Load() }

// Packets returns the number of packets injected.
func (pp *ParallelPacket) Packets() int64 { return pp.packets }

// Steps returns the total number of DES events executed across all
// LPs (valid after Run returns) — the cost metric differential tests
// compare across engine configurations.
func (pp *ParallelPacket) Steps() uint64 { return pp.par.Steps() }

// NullMessages exposes the engine's synchronization-message count.
func (pp *ParallelPacket) NullMessages() uint64 { return pp.par.NullMessages() }

// PerLP exposes the engine's per-logical-process counters.
func (pp *ParallelPacket) PerLP() []des.LPStats { return pp.par.PerLP() }

// Handle implements des.Actor: process a packet's arrival at one link.
func (a *routerActor) Handle(now simtime.Time, msg any, s des.Scheduler) {
	hop := msg.(*pktHop)
	net := a.net
	if hop.idx >= len(hop.path) {
		// Delivery notice scheduled below: the message is delivered now.
		// Recording delivery in its own event (rather than inline at the
		// ejection hop with a future timestamp) keeps the accounting
		// event-timed exactly like the sequential model, so a budget that
		// halts before the delivery time excludes the same deliveries in
		// both engines.
		net.delivered.Add(1)
		at := int64(now)
		for {
			cur := net.makespan.Load()
			if at <= cur || net.makespan.CompareAndSwap(cur, at) {
				break
			}
		}
		return
	}
	link := hop.path[hop.idx]
	bw := net.bwOf[link]
	begin := simtime.Max(now, a.busy[link])
	departure := begin + simtime.TransferTime(hop.size, bw)
	a.busy[link] = departure

	if hop.idx+1 >= len(hop.path) {
		// Ejected: the message lands when its last packet clears the
		// ejection wire and NIC. Per-link FIFO makes the final packet's
		// departure the message's latest, so only it posts the notice.
		if hop.remaining.Add(-1) == 0 {
			hop.idx = len(hop.path) // repurpose the hop as a delivery notice
			s.Schedule(a.self, departure-now+net.mach.LinkLatency+net.mach.NICLatency, hop)
		}
		return
	}
	next := hop.path[hop.idx+1]
	target := net.actorOf[net.ownerElem(next)]
	// Delay to the next hop: remaining occupancy plus wire latency;
	// always ≥ link latency, the engine lookahead. The same pktHop
	// object rides the whole path; only idx advances.
	hop.idx++
	s.Schedule(target, departure-now+net.mach.LinkLatency, hop)
}
