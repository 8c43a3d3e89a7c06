package mfact

import (
	"fmt"
	"math/rand"
	"testing"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/trace"
)

// benchTrace builds a mid-sized mixed trace (stencil + collectives +
// nonblocking p2p) for replayer benchmarks.
func benchTraceN(b *testing.B, ranks, steps int) *trace.Trace {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	bld := trace.NewBuilder(trace.Meta{App: "bench", NumRanks: ranks})
	for s := 0; s < steps; s++ {
		for r := 0; r < ranks; r++ {
			bld.Compute(r, simtime.Time(100+rng.Intn(50))*simtime.Microsecond)
		}
		for r := 0; r < ranks; r++ {
			right := int32((r + 1) % ranks)
			left := int32((r - 1 + ranks) % ranks)
			rq := bld.Irecv(r, left, int32(s), 8192, trace.CommWorld)
			sq := bld.Isend(r, right, int32(s), 8192, trace.CommWorld)
			bld.Waitall(r, rq, sq)
		}
		for r := 0; r < ranks; r++ {
			bld.Collective(r, trace.OpAllreduce, trace.CommWorld, 0, 64)
		}
	}
	tr, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func benchMach(b *testing.B, ranks int) *machine.Config {
	b.Helper()
	m, err := machine.Hopper(ranks, 0)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkReplaySequential prices one replay of a mid-sized mixed
// trace over the standard sweep.
func BenchmarkReplaySequential(b *testing.B) {
	tr := benchTraceN(b, 64, 30)
	mach := benchMach(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Model(tr, mach, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.NumEvents()), "events/replay")
}

// BenchmarkSweepWidth shows the payoff of MFACT's multi-configuration
// single-pass replay: K configurations cost far less than K replays.
func BenchmarkSweepWidth(b *testing.B) {
	tr := benchTraceN(b, 64, 30)
	mach := benchMach(b, 64)
	for _, k := range []int{1, 4, 13, 26} {
		cfgs := []NetConfig{Baseline}
		for len(cfgs) < k {
			cfgs = append(cfgs, NetConfig{
				BWScale: 1 + float64(len(cfgs))*0.25, LatScale: 1, CompScale: 1,
			})
		}
		b.Run(fmt.Sprintf("configs=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Model(tr, mach, cfgs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOnePassVsPerConfig is the direct ablation: one 13-config
// pass against 13 single-config passes.
func BenchmarkOnePassVsPerConfig(b *testing.B) {
	tr := benchTraceN(b, 64, 30)
	mach := benchMach(b, 64)
	sweep := StandardSweep()
	b.Run("one-pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Model(tr, mach, sweep); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-config", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, cfg := range sweep[1:] {
				if _, err := Model(tr, mach, []NetConfig{Baseline, cfg}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
