package simnet

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
	"unsafe"

	"hpctradeoff/internal/des"
	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/topology"
)

// TestPacketLinkQueuesIncrease holds the packet model's link queues to
// the property that makes them exact: behind every link, the queued
// next-hop keys strictly increase, so queueing only the head pops every
// packet under the key it would have had in the heap. An all-to-all
// storm on 96 ranks piles packets up behind the injection links; a probe
// walks every queue between events, and no packet may ever take the
// overtaking fallback.
func TestPacketLinkQueuesIncrease(t *testing.T) {
	mach, err := machine.Edison(96, 24)
	if err != nil {
		t.Fatal(err)
	}
	var eng des.Engine
	p := newPacketNet(&eng, mach, Config{}.withDefaults(Packet), false)
	const ranks, bytes = 96, 4 << 10
	want, delivered := 0, 0
	for src := int32(0); src < ranks; src++ {
		for k := int32(1); k < ranks; k++ {
			want++
			p.Send(src, (src+k)%ranks, bytes, func() { delivered++ })
		}
	}
	deepest, probes := 0, 0
	var probe func()
	probe = func() {
		probes++
		cur := eng.Current()
		for l, head := range p.qHead {
			n := 0
			var last *packet
			for pk := head; pk != nil; pk = pk.next {
				if !cur.Before(pk.key) {
					t.Fatalf("link %d: queued key %v is not after the running event %v", l, pk.key, cur)
				}
				if last != nil && !last.key.Before(pk.key) {
					t.Fatalf("link %d: key %v queued behind %v", l, pk.key, last.key)
				}
				if left := p.routes.paths[pk.route][pk.hopIdx-1]; left != topology.LinkID(l) {
					t.Fatalf("link %d: queued packet left link %d", l, left)
				}
				last, n = pk, n+1
			}
			if p.qTail[l] != last {
				t.Fatalf("link %d: tail is not the queue's last packet", l)
			}
			deepest = max(deepest, n)
		}
		if delivered < want {
			eng.After(simtime.Microsecond, probe)
		}
	}
	eng.After(0, probe)
	eng.Run()
	if delivered != want {
		t.Fatalf("delivered %d of %d messages", delivered, want)
	}
	if p.overtakes != 0 {
		t.Errorf("%d packets took the overtaking fallback; packet-model departures must increase per link", p.overtakes)
	}
	if deepest < 1000 {
		t.Errorf("deepest link queue seen in %d probes held %d packets; the storm should queue thousands", probes, deepest)
	}
}

// overtakeFingerprint is what overtakeStorm's replay hashed to when
// every packet in flight was its own heap event, before link queues.
const overtakeFingerprint = "7ebe83ac35ef78c5"

// TestPacketFlowOvertakingFallback forces packet-flow's float backlog to
// reorder departures. Node 0's injection link starts with a 2⁶⁰-byte
// backlog on a link 10⁴ times faster than the rest, so one ulp of
// backlog (256 bytes) is 2.56 ps: packets sent 1 ps apart round their
// drained backlog to whole ulps and can depart before the packet ahead
// of them. Such a packet is queued on its own, and the replay must
// still match the pinned fingerprint bit for bit.
func TestPacketFlowOvertakingFallback(t *testing.T) {
	p, got := overtakeStorm(t)
	if p.overtakes == 0 {
		t.Fatal("no packet overtook; the scenario no longer exercises the fallback")
	}
	if got != overtakeFingerprint {
		t.Errorf("fingerprint %s, want %s (%d overtakes)", got, overtakeFingerprint, p.overtakes)
	}
}

// overtakeStorm runs the overtaking scenario and hashes every
// delivery (message and time, in delivery order) and the engine's
// event counts.
func overtakeStorm(t *testing.T) (*packetNet, string) {
	mach, err := machine.Edison(96, 24)
	if err != nil {
		t.Fatal(err)
	}
	inj := mach.Topo.Route(nil, 0, 1)[0]
	mach.LinkBWScale = make([]float64, mach.Topo.NumLinks())
	for l := range mach.LinkBWScale {
		mach.LinkBWScale[l] = 1
	}
	mach.LinkBWScale[inj] = 1e4
	var eng des.Engine
	p := newPacketNet(&eng, mach, Config{}.withDefaults(PacketFlow), true)
	p.backlog[inj] = 0x1p60
	h := fnv.New64a()
	put := func(v int64) { _ = binary.Write(h, binary.LittleEndian, v) }
	const msgs = 400
	for i := 0; i < msgs; i++ {
		src := int32(i % 24)          // node 0's ranks
		dst := int32(24 + (i*7)%72)   // every other node
		bytes := int64(1 + (i*37)%97) // one packet, under half an ulp
		eng.At(simtime.Time(i), func() {
			p.Send(src, dst, bytes, func() {
				put(int64(i))
				put(int64(eng.Now()))
			})
		})
	}
	eng.Run()
	put(int64(eng.Steps()))
	put(int64(eng.Popped()))
	return p, fmt.Sprintf("%016x", h.Sum64())
}

// TestPacketIs64Bytes pins the packet's size: every packet in flight is
// one, so the packet models' memory scales with it.
func TestPacketIs64Bytes(t *testing.T) {
	if got := unsafe.Sizeof(packet{}); got != 64 {
		t.Errorf("packet is %d bytes, want 64", got)
	}
}
