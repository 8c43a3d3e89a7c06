// Package simnet provides the SST/Macro-analog network simulation
// models the study compares: a packet-level model (per-packet
// store-and-forward with exclusive channel reservation), a flow-level
// model (fluid max-min bandwidth sharing with ripple updates), and the
// hybrid packet-flow model (coarse packets that sample congestion with
// channel multiplexing). All three run on the sequential DES engine
// and route messages over the machine's topology, so all three observe
// network contention — the capability that distinguishes simulation
// from Hockney-style modeling.
package simnet

import (
	"errors"
	"fmt"

	"hpctradeoff/internal/des"
	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/topology"
)

// Model names the simulation granularity, mirroring SST/Macro's packet
// (3.0), flow (3.0), and packet-flow (6.1) models.
type Model string

// The three SST/Macro-analog models.
const (
	Packet     Model = "packet"
	Flow       Model = "flow"
	PacketFlow Model = "packetflow"
)

// Models lists the simulation models in the order the paper reports
// them.
func Models() []Model { return []Model{Packet, Flow, PacketFlow} }

// ErrUnsupportedTrace is returned by networks that cannot replay a
// trace's feature set (the analog of SST/Macro 3.0's packet and flow
// models failing on complex MPI grouping and multi-threaded traces).
var ErrUnsupportedTrace = errors.New("simnet: trace uses features this model does not support")

// Network delivers messages between ranks under some timing model.
// Implementations are driven by a DES engine; Send must be called from
// engine context (time = engine.Now()).
type Network interface {
	// Model identifies the timing model.
	Model() Model
	// Send injects a message of the given size from rank src to rank
	// dst; onDelivered runs (in engine context) when the last byte
	// arrives at dst. Loopback (same node) messages are delivered after
	// a memcpy-speed delay.
	Send(src, dst int32, bytes int64, onDelivered func())
	// Stats reports cumulative cost counters.
	Stats() Stats
}

// Stats are the cost counters of a network simulation; the study's
// complexity comparisons are in terms of these.
type Stats struct {
	// Messages is the number of Send calls.
	Messages int64
	// Packets is the number of packet events created (0 for flow).
	Packets int64
	// FlowUpdates is the number of fluid rate recomputations (0 for
	// packet models).
	FlowUpdates int64
	// BytesSent is the total payload injected.
	BytesSent int64
}

// Config tunes a model instance.
type Config struct {
	// PacketBytes is the packet size. Defaults: 512 B for the packet
	// model (fine-grained serialization, the expensive end of the
	// "hundreds of bytes" range) and 4 KiB for the packet-flow model
	// (the SST/Macro developers recommend 1–8 KiB).
	PacketBytes int64
	// LoopbackBandwidth is the intra-node copy bandwidth in bytes/s
	// (default 8 GB/s).
	LoopbackBandwidth float64
}

func (c Config) withDefaults(m Model) Config {
	if c.PacketBytes <= 0 {
		if m == Packet {
			c.PacketBytes = 512
		} else {
			c.PacketBytes = 4 << 10
		}
	}
	if c.LoopbackBandwidth <= 0 {
		c.LoopbackBandwidth = 8e9
	}
	return c
}

// New constructs a network of the given model bound to a machine and a
// DES engine.
func New(m Model, eng *des.Engine, mach *machine.Config, cfg Config) (Network, error) {
	cfg = cfg.withDefaults(m)
	switch m {
	case Packet:
		return newPacketNet(eng, mach, cfg, false), nil
	case PacketFlow:
		return newPacketNet(eng, mach, cfg, true), nil
	case Flow:
		return newFlowNet(eng, mach, cfg), nil
	}
	return nil, fmt.Errorf("simnet: unknown model %q", m)
}

// Supports reports whether the model can replay a trace with the given
// capability flags. SST/Macro 3.0's packet and flow models cannot
// handle complex communicator grouping or MPI thread-multiple traces;
// the 6.1 packet-flow model handles everything.
func Supports(m Model, usesCommSplit, usesThreadMultiple bool) bool {
	switch m {
	case Packet:
		return !usesThreadMultiple
	case Flow:
		return !usesThreadMultiple && !usesCommSplit
	default:
		return true
	}
}

// loopback computes the delivery delay for intra-node messages.
func loopback(bytes int64, cfg Config, mach *machine.Config) simtime.Time {
	return mach.NICLatency + simtime.TransferTime(bytes, cfg.LoopbackBandwidth)
}

// linkBandwidths tabulates every link's bandwidth in bytes/s, indexed
// by topology.LinkID: the NIC's rate on injection and ejection links,
// the fabric's elsewhere, times the machine's per-link scale if it has
// one. Every model reads its link rates from this table.
func linkBandwidths(mach *machine.Config) []float64 {
	bw := make([]float64, mach.Topo.NumLinks())
	for id := range bw {
		switch mach.Topo.Link(topology.LinkID(id)).Kind {
		case topology.Injection, topology.Ejection:
			bw[id] = mach.InjectionBandwidth
		default:
			bw[id] = mach.LinkBandwidth
		}
		if mach.LinkBWScale != nil {
			bw[id] *= mach.LinkBWScale[id]
		}
	}
	return bw
}
