package simnet

import (
	"hpctradeoff/internal/des"
	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/topology"
)

// packetNet implements both the packet model and the hybrid
// packet-flow model; the two differ in how a packet occupies a link:
//
//   - packet (SST/Macro 3.0 style): every packet exclusively reserves
//     each channel on its path for its full serialization time
//     (store-and-forward with FIFO queueing). This is the source of the
//     serialization-latency overestimation the paper describes.
//
//   - packet-flow (SST/Macro 6.1 style): packets "sample" the
//     congestion of each channel: a link keeps a fluid backlog that
//     drains at link bandwidth, and a packet's traversal delay is the
//     backlog (including itself) divided by bandwidth. Channels are
//     multiplexed rather than exclusively reserved, and packets are
//     coarser, so the model is cheaper and avoids the overestimation.
type packetNet struct {
	eng       *des.Engine
	mach      *machine.Config
	cfg       Config
	multiplex bool // true for packet-flow

	// Per-link state, indexed by topology.LinkID.
	bwOf      []float64      // bandwidth, bytes/s
	busyUntil []simtime.Time // packet model: exclusive reservation
	backlog   []float64      // packet-flow: fluid backlog in bytes
	lastDrain []simtime.Time // packet-flow: last backlog update

	// Link queues, indexed by topology.LinkID: the packets that have
	// left a link and wait for their next hop, in key order, linked
	// through packet.next. Only a queue's head is in the engine's heap;
	// when it pops it queues the packet behind it. overtakes counts the
	// packets whose key was not after their queue's tail and so were
	// queued on their own (DESIGN.md §9, "Link queues").
	qHead, qTail []*packet
	overtakes    int

	routes routeCache
	stats  Stats

	// free is the packet free-list. A packet object (with its bound hop
	// callback) is recycled when its last hop completes, so a steady
	// packet stream allocates nothing per packet after warm-up — the
	// packet scheme's event rate is the study's highest, which made
	// per-packet garbage the process's dominant allocation source.
	// freeMsgs does the same for messages.
	free     []*packet
	freeMsgs []*message
}

func newPacketNet(eng *des.Engine, mach *machine.Config, cfg Config, multiplex bool) *packetNet {
	n := mach.Topo.NumLinks()
	p := &packetNet{
		eng:       eng,
		mach:      mach,
		cfg:       cfg,
		multiplex: multiplex,
		bwOf:      linkBandwidths(mach),
		qHead:     make([]*packet, n),
		qTail:     make([]*packet, n),
		routes:    newRouteCache(mach),
	}
	if multiplex {
		p.backlog = make([]float64, n)
		p.lastDrain = make([]simtime.Time, n)
	} else {
		p.busyUntil = make([]simtime.Time, n)
	}
	return p
}

// Model implements Network.
func (p *packetNet) Model() Model {
	if p.multiplex {
		return PacketFlow
	}
	return Packet
}

// Stats implements Network.
func (p *packetNet) Stats() Stats { return p.stats }

// Send implements Network.
func (p *packetNet) Send(src, dst int32, bytes int64, onDelivered func()) {
	p.stats.Messages++
	p.stats.BytesSent += bytes
	srcNode, dstNode := p.mach.NodeOf[src], p.mach.NodeOf[dst]
	if srcNode == dstNode {
		p.eng.After(loopback(bytes, p.cfg, p.mach), onDelivered)
		return
	}
	_, route := p.routes.get(int(srcNode), int(dstNode))
	nPackets := int((bytes + p.cfg.PacketBytes - 1) / p.cfg.PacketBytes)
	if nPackets == 0 {
		nPackets = 1 // zero-byte message still sends a header packet
	}
	last := bytes - int64(nPackets-1)*p.cfg.PacketBytes
	m := p.getMessage()
	m.left, m.onDelivered = nPackets, onDelivered
	// The packets' first hops are n events at one time under
	// consecutive sequence numbers: one pop runs them all, in order.
	tail := &m.first
	for i := 0; i < nPackets; i++ {
		size := p.cfg.PacketBytes
		if i == nPackets-1 {
			size = last
		}
		if size <= 0 {
			size = 1
		}
		p.stats.Packets++
		pk := p.getPacket()
		pk.route, pk.size, pk.msg = route, size, m
		*tail = pk
		tail = &pk.next
	}
	p.eng.AtBatch(p.eng.Now()+p.mach.NICLatency, nPackets, m.firstHopsFn)
}

// message is one Send's packets in flight. A packet's arrival at the
// destination is only a key; the message queues the latest of them,
// whose event hands the payload over.
type message struct {
	net         *packetNet
	first       *packet // the packets, in order, until their first hops
	left        int     // packets whose arrival key is not yet reserved
	last        des.Key // the latest arrival key so far
	onDelivered func()

	firstHopsFn, arriveFn func()
}

// packet walks its route one link per event. It is 64 bytes: every
// packet in flight is one, so its size sets the packet models' memory.
type packet struct {
	net *packetNet
	msg *message
	// next is the message's next packet until the first hop, and after
	// each later hop the packet behind this one in its link queue.
	next   *packet
	key    des.Key // the next hop's key, while the packet is queued
	size   int64
	route  int32 // route id: the path is net.routes.paths[route]
	hopIdx int32
	// nextHopFn is the nextHop method bound once at allocation;
	// scheduling it repeatedly costs nothing, where scheduling
	// pk.nextHop directly would allocate a fresh method value on every
	// hop.
	nextHopFn func()
}

// getMessage takes a message from the free-list or allocates one.
func (p *packetNet) getMessage() *message {
	if n := len(p.freeMsgs); n > 0 {
		m := p.freeMsgs[n-1]
		p.freeMsgs = p.freeMsgs[:n-1]
		return m
	}
	m := &message{net: p}
	m.firstHopsFn, m.arriveFn = m.firstHops, m.arrive
	return m
}

// firstHops runs each packet's first hop, in packet order.
func (m *message) firstHops() {
	pk := m.first
	m.first = nil
	for pk != nil {
		next := pk.next
		pk.next = nil
		pk.hop()
		pk = next
	}
}

// arrived takes one packet's arrival key. Once every packet has one,
// the latest is queued: the arrival that completes the message.
// Taking the latest key, not the last packet's, keeps that exact even
// where packet-flow's float backlog lets packets overtake.
func (m *message) arrived(k des.Key) {
	if m.last.Before(k) {
		m.last = k
	}
	if m.left--; m.left == 0 {
		m.net.eng.AtKey(m.last, m.arriveFn)
	}
}

// arrive delivers the message one NIC latency after its last packet
// arrives, and recycles it.
func (m *message) arrive() {
	p, onDelivered := m.net, m.onDelivered
	m.onDelivered, m.last = nil, des.Key{}
	p.freeMsgs = append(p.freeMsgs, m)
	p.eng.After(p.mach.NICLatency, onDelivered)
}

// getPacket takes a packet from the free-list or allocates one.
func (p *packetNet) getPacket() *packet {
	if n := len(p.free); n > 0 {
		pk := p.free[n-1]
		p.free = p.free[:n-1]
		return pk
	}
	pk := &packet{net: p}
	pk.nextHopFn = pk.nextHop
	return pk
}

// putPacket recycles a completed packet.
func (p *packetNet) putPacket(pk *packet) {
	pk.msg, pk.size, pk.hopIdx = nil, 0, 0
	p.free = append(p.free, pk)
}

// hop processes the packet's arrival at its current link and queues it
// behind that link for its arrival at the next. Arrival past the last
// link only reserves its key, for the message to compare.
func (pk *packet) hop() {
	n := pk.net
	path := n.routes.paths[pk.route]
	link := path[pk.hopIdx]
	pk.hopIdx++
	now := n.eng.Now()
	bw := n.bwOf[link]
	var departure simtime.Time
	if n.multiplex {
		// Drain the fluid backlog, add ourselves, sample the delay.
		elapsed := now - n.lastDrain[link]
		n.backlog[link] -= float64(elapsed.Seconds() * bw)
		if n.backlog[link] < 0 {
			n.backlog[link] = 0
		}
		n.lastDrain[link] = now
		n.backlog[link] += float64(pk.size)
		departure = now + simtime.FromSeconds(n.backlog[link]/bw)
	} else {
		// Exclusive reservation: wait for the channel, then hold it for
		// the full serialization time.
		begin := simtime.Max(now, n.busyUntil[link])
		departure = begin + simtime.TransferTime(pk.size, bw)
		n.busyUntil[link] = departure
	}
	at := departure + n.mach.LinkLatency
	if int(pk.hopIdx) < len(path) {
		n.enqueue(link, pk, n.eng.Reserve(at))
		return
	}
	m := pk.msg
	n.putPacket(pk)
	m.arrived(n.eng.Reserve(at))
}

// enqueue appends pk, whose next hop has key k, to the queue of the
// link it has just left. A queue holds strictly increasing keys, so
// only its head needs to be in the heap. In the packet model a link's
// departures always increase; packet-flow's float backlog can put a
// key at or before the tail's, and that packet is queued on its own.
func (n *packetNet) enqueue(link topology.LinkID, pk *packet, k des.Key) {
	pk.key = k
	switch tail := n.qTail[link]; {
	case tail == nil:
		n.qHead[link], n.qTail[link] = pk, pk
		n.eng.AtKey(k, pk.nextHopFn)
	case tail.key.Before(k):
		tail.next, n.qTail[link] = pk, pk
	default:
		n.overtakes++
		n.eng.AtKey(k, pk.nextHopFn)
	}
}

// nextHop is a queued packet's next hop. At the head of its link's
// queue, it first queues the packet behind it, whose key is later; a
// packet queued on its own is no queue's head.
func (pk *packet) nextHop() {
	n := pk.net
	link := n.routes.paths[pk.route][pk.hopIdx-1]
	if n.qHead[link] == pk {
		if next := pk.next; next != nil {
			pk.next = nil
			n.qHead[link] = next
			n.eng.AtKey(next.key, next.nextHopFn)
		} else {
			n.qHead[link], n.qTail[link] = nil, nil
		}
	}
	pk.hop()
}

// routeCache memoizes node-pair routes and numbers them densely in the
// order they are first asked for.
type routeCache struct {
	mach  *machine.Config
	ids   map[int64]int32
	paths [][]topology.LinkID // indexed by route id
}

func newRouteCache(mach *machine.Config) routeCache {
	return routeCache{mach: mach, ids: make(map[int64]int32)}
}

// get returns the route from srcNode to dstNode and its id.
func (rc *routeCache) get(srcNode, dstNode int) ([]topology.LinkID, int32) {
	key := int64(srcNode)<<32 | int64(uint32(dstNode))
	if id, ok := rc.ids[key]; ok {
		return rc.paths[id], id
	}
	id := int32(len(rc.paths))
	path := rc.mach.Topo.Route(nil, srcNode, dstNode)
	rc.ids[key] = id
	rc.paths = append(rc.paths, path)
	return path, id
}
