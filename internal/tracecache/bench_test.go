package tracecache

import (
	"testing"

	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/trace"
	"hpctradeoff/internal/workload"
)

// benchSuite is four class-S traces over three machines, the size of a
// reduced campaign.
var benchSuite = []workload.Params{
	{App: "CG", Class: "S", Ranks: 16, Machine: "cielito", RanksPerNode: 4, Seed: 11},
	{App: "FT", Class: "S", Ranks: 16, Machine: "hopper", RanksPerNode: 4, Seed: 22},
	{App: "LULESH", Class: "S", Ranks: 16, Machine: "edison", RanksPerNode: 4, Seed: 33},
	{App: "IS", Class: "S", Ranks: 16, Machine: "cielito", RanksPerNode: 4, Seed: 44},
}

// BenchmarkAcquireCold pays the full miss path for every suite trace:
// materialize, ground-truth stamp, v3 encode, atomic publish.
func BenchmarkAcquireCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := Open(b.TempDir(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range benchSuite {
			_, release, hit := acquire(b, c, p)
			if hit {
				b.Fatal("cold acquire hit the cache")
			}
			release()
		}
	}
}

// BenchmarkAcquireWarm reacquires published suite entries: sidecar
// verification, mmap and a checksum pass, with no generation, stamping
// or decode. Its ns/op over BenchmarkAcquireCold's is the per-trace
// acquisition cost the cache removes from a warm campaign.
func BenchmarkAcquireWarm(b *testing.B) {
	dir := b.TempDir()
	c, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range benchSuite {
		_, release, _ := acquire(b, c, p)
		release()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range benchSuite {
			_, release, hit, err := c.Acquire(p, func() (*trace.Columns, error) {
				b.Fatal("warm acquire missed the cache")
				return nil, nil
			})
			if err != nil || !hit {
				b.Fatalf("warm acquire: hit %v, %v", hit, err)
			}
			release()
		}
	}
}

// BenchmarkOpenProgram acquires a 128-rank class-B stencil trace and
// its stored replay program as a cache hit: the trace's verification
// and mapping plus the program's mapping, checksum and validation. Its
// ns/op over mpisim's BenchmarkLowerStencil is what serving the program
// saves per trace.
func BenchmarkOpenProgram(b *testing.B) {
	p := workload.Params{App: "LULESH", Class: "B", Ranks: 128, Machine: "hopper", Seed: 1}
	dir := b.TempDir()
	c, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	_, _, release, _, err := c.AcquireProgram(p, func() (*trace.Columns, *mpisim.Program, error) {
		return workload.MaterializeReplay(p, workload.Limits{})
	})
	if err != nil {
		b.Fatal(err)
	}
	release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		_, _, release, hit, err := c.AcquireProgram(p, func() (*trace.Columns, *mpisim.Program, error) {
			b.Fatal("program acquire missed the cache")
			return nil, nil, nil
		})
		if err != nil || !hit || c.Stats().Relowered != 0 {
			b.Fatalf("program acquire: hit %v, relowered %d, %v", hit, c.Stats().Relowered, err)
		}
		release()
	}
}
