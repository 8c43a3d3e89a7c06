package simnet

import (
	"fmt"
	"testing"

	"hpctradeoff/internal/des"
	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/simtime"
)

func benchMach(b *testing.B) *machine.Config {
	b.Helper()
	m, err := machine.Edison(96, 24)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// benchTraffic injects a random-permutation traffic pattern and runs
// the network to completion.
func benchTraffic(b *testing.B, m Model, cfg Config, msgs int, bytes int64) {
	mach := benchMach(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var eng des.Engine
		net, err := New(m, &eng, mach, cfg)
		if err != nil {
			b.Fatal(err)
		}
		delivered := 0
		for k := 0; k < msgs; k++ {
			src := int32(k % 96)
			dst := int32((k*37 + 11) % 96)
			if src == dst {
				dst = (dst + 1) % 96
			}
			net.Send(src, dst, bytes, func() { delivered++ })
		}
		eng.Run()
		if delivered != msgs {
			b.Fatalf("delivered %d of %d", delivered, msgs)
		}
	}
}

// Per-model message throughput at the two ends of the size range.
func BenchmarkPacketSmallMsgs(b *testing.B)     { benchTraffic(b, Packet, Config{}, 512, 1024) }
func BenchmarkPacketLargeMsgs(b *testing.B)     { benchTraffic(b, Packet, Config{}, 64, 1<<20) }
func BenchmarkFlowSmallMsgs(b *testing.B)       { benchTraffic(b, Flow, Config{}, 512, 1024) }
func BenchmarkFlowLargeMsgs(b *testing.B)       { benchTraffic(b, Flow, Config{}, 64, 1<<20) }
func BenchmarkPacketFlowSmallMsgs(b *testing.B) { benchTraffic(b, PacketFlow, Config{}, 512, 1024) }
func BenchmarkPacketFlowLargeMsgs(b *testing.B) { benchTraffic(b, PacketFlow, Config{}, 64, 1<<20) }

// benchAllToAll has each of 96 ranks send one message to every other
// rank at once: the all-to-all regime of FT and IS, where thousands of
// packets wait behind each injection link and a flow recompute sees
// thousands of flows in a few hundred route classes.
func benchAllToAll(b *testing.B, m Model, bytes int64) {
	mach := benchMach(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var eng des.Engine
		net, err := New(m, &eng, mach, Config{})
		if err != nil {
			b.Fatal(err)
		}
		delivered := 0
		for src := int32(0); src < 96; src++ {
			for k := int32(1); k < 96; k++ {
				net.Send(src, (src+k)%96, bytes, func() { delivered++ })
			}
		}
		eng.Run()
		if delivered != 96*95 {
			b.Fatalf("delivered %d of %d", delivered, 96*95)
		}
	}
}

// Per-model cost of one 96 × 95-message all-to-all.
func BenchmarkPacketAllToAll(b *testing.B)     { benchAllToAll(b, Packet, 4<<10) }
func BenchmarkFlowAllToAll(b *testing.B)       { benchAllToAll(b, Flow, 4<<10) }
func BenchmarkPacketFlowAllToAll(b *testing.B) { benchAllToAll(b, PacketFlow, 16<<10) }

// BenchmarkPacketSizeAblation sweeps the packet model's granularity:
// smaller packets mean more events (the accuracy/cost knob).
func BenchmarkPacketSizeAblation(b *testing.B) {
	for _, sz := range []int64{256, 512, 1024, 4096} {
		b.Run(fmt.Sprintf("%dB", sz), func(b *testing.B) {
			benchTraffic(b, Packet, Config{PacketBytes: sz}, 64, 1<<20)
		})
	}
}

// BenchmarkFlowChurn stresses the ripple path: many short flows
// starting and finishing while long flows persist.
func BenchmarkFlowChurn(b *testing.B) {
	mach := benchMach(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var eng des.Engine
		net, err := New(Flow, &eng, mach, Config{})
		if err != nil {
			b.Fatal(err)
		}
		// Four long background flows.
		for k := 0; k < 4; k++ {
			net.Send(int32(k), int32(95-k), 8<<20, func() {})
		}
		// A stream of short flows arriving over time.
		var spawn func(k int)
		spawn = func(k int) {
			if k >= 400 {
				return
			}
			net.Send(int32(8+k%40), int32(50+k%40), 64<<10, func() {})
			eng.After(20*simtime.Microsecond, func() { spawn(k + 1) })
		}
		eng.After(0, func() { spawn(0) })
		eng.Run()
	}
	b.StopTimer()
}
