package mpisim_test

import (
	"testing"

	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/workload"
)

// BenchmarkLowerStencil lowers a 128-rank class-B stencil trace (the
// p2p workloads' kind) into a fresh program: what a campaign pays per
// trace when the cache holds no current program for it.
func BenchmarkLowerStencil(b *testing.B) {
	benchmarkLower(b, workload.Params{App: "LULESH", Class: "B", Ranks: 128, Machine: "hopper", Seed: 1})
}

// BenchmarkLowerCollective is BenchmarkLowerStencil for a trace whose
// collectives dominate its program: a 128-rank class-B MiniFE, whose
// allreduce rounds were 82 % of its ops when every instance was
// lowered in full.
func BenchmarkLowerCollective(b *testing.B) {
	benchmarkLower(b, workload.Params{App: "MiniFE", Class: "B", Ranks: 128, Machine: "hopper", Seed: 1})
}

func benchmarkLower(b *testing.B, p workload.Params) {
	cols, err := workload.GenerateColumns(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mpisim.Lower(cols); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cols.NumEvents()), "ns/event")
}
