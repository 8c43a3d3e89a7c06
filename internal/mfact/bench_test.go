package mfact

import (
	"fmt"
	"math/rand"
	"testing"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/trace"
)

// benchTrace builds a mid-sized mixed trace (stencil + collectives +
// nonblocking p2p) for replayer benchmarks.
func benchTraceN(b testing.TB, ranks, steps int) *trace.Columns {
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
	tr, err := bld.BuildColumns()
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func benchMach(b testing.TB, ranks int) *machine.Config {
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

// TestSessionAllocationsIndependentOfLength pins MFACT's steady-state
// cost at zero allocations per event: once a session has replayed a
// trace, replaying its program again allocates only per-trace state
// (the rank clocks and the result), so a trace twice as long costs the
// same number of allocations.
func TestSessionAllocationsIndependentOfLength(t *testing.T) {
	mach := benchMach(t, 64)
	allocs := func(steps int) (float64, int) {
		tr := benchTraceN(t, 64, steps)
		prog, err := mpisim.Lower(tr)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSession()
		run := func() {
			if _, err := s.ModelProgram(tr, prog, mach, nil); err != nil {
				t.Fatal(err)
			}
		}
		run() // size the session's arrays
		return testing.AllocsPerRun(5, run), tr.NumEvents()
	}
	short, nShort := allocs(30)
	long, nLong := allocs(60)
	if long != short {
		t.Fatalf("%v allocations for %d events, %v for %d: a replay allocates per event", short, nShort, long, nLong)
	}
	t.Logf("%v allocations per replay (%.4f per event at %d events)", long, long/float64(nLong), nLong)
}

// BenchmarkModelProgram is one session replay of a lowered program, the
// per-trace MFACT cost on a warm campaign.
func BenchmarkModelProgram(b *testing.B) {
	tr := benchTraceN(b, 64, 30)
	mach := benchMach(b, 64)
	prog, err := mpisim.Lower(tr)
	if err != nil {
		b.Fatal(err)
	}
	s := NewSession()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ModelProgram(tr, prog, mach, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.NumEvents()), "ns/event")
}
