package hpctradeoff_test

// One benchmark per table and figure of the paper's evaluation
// section. Each benchmark regenerates its artifact from a shared
// reduced-suite run (the full 235-trace study lives in cmd/tradeoff
// and diffreport -predict) and prints it once, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation at laptop scale. Scheme-level
// microbenchmarks (BenchmarkScheme*) regenerate the Table II
// comparison directly: the same trace through MFACT modeling and the
// three simulation granularities.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"hpctradeoff/internal/core"
	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/mfact"
	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/simnet"
	"hpctradeoff/internal/trace"
	"hpctradeoff/internal/workload"
)

// benchSuite runs a reduced manifest once and caches the results for
// all artifact benchmarks.
var (
	suiteOnce    sync.Once
	suiteResults []*core.TraceResult
	suiteErr     error
)

func suiteForBench(b *testing.B) []*core.TraceResult {
	b.Helper()
	suiteOnce.Do(func() {
		ps := workload.SuiteSmall(4, 256) // every 4th trace, ≤256 ranks
		suiteResults, suiteErr = core.RunSuite(ps, 0, nil)
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suiteResults
}

var printOnce sync.Map

// printArtifact logs an artifact once per process so -bench output
// carries the regenerated tables/figures without repeating them b.N
// times.
func printArtifact(b *testing.B, key, text string) {
	b.Helper()
	if _, dup := printOnce.LoadOrStore(key, true); !dup {
		b.Logf("\n%s", text)
	}
}

func BenchmarkTableI(b *testing.B) {
	rs := suiteForBench(b)
	b.ResetTimer()
	var t1 core.Table1
	for i := 0; i < b.N; i++ {
		t1 = core.BuildTable1(rs)
	}
	b.StopTimer()
	printArtifact(b, "t1", t1.Render())
}

func BenchmarkTableII(b *testing.B) {
	rs := suiteForBench(b)
	// The reduced suite lacks the exact 1024/1152-rank rows; report the
	// largest available configuration per Table II application instead.
	want := map[string]int{}
	for _, r := range rs {
		for _, app := range []string{"CMC", "LULESH", "MiniFE"} {
			if r.Params.App == app && r.Params.Ranks > want[app] {
				want[app] = r.Params.Ranks
			}
		}
	}
	b.ResetTimer()
	var rows []core.Table2Row
	for i := 0; i < b.N; i++ {
		rows = core.BuildTable2(rs, want)
	}
	b.StopTimer()
	printArtifact(b, "t2", core.RenderTable2(rows))
}

func BenchmarkFigure1(b *testing.B) {
	rs := suiteForBench(b)
	b.ResetTimer()
	var f1 core.Figure1
	for i := 0; i < b.N; i++ {
		f1 = core.BuildFigure1(rs, 10*time.Millisecond)
	}
	b.StopTimer()
	printArtifact(b, "f1", f1.Render())
	b.ReportMetric(100*f1.FirstPlace["MFACT"], "%mfact-fastest")
}

func BenchmarkFigure2(b *testing.B) {
	rs := suiteForBench(b)
	b.ResetTimer()
	var f2 core.Figure2
	for i := 0; i < b.N; i++ {
		f2 = core.BuildFigure2(rs)
	}
	b.StopTimer()
	printArtifact(b, "f2", f2.Render())
	cdf := f2.TotalDiff[string(simnet.PacketFlow)]
	b.ReportMetric(100*cdf.FractionWithin(0.05), "%within5pct")
	b.ReportMetric(100*cdf.FractionWithin(0.02), "%within2pct")
}

func BenchmarkFigure3(b *testing.B) {
	rs := suiteForBench(b)
	nas := []string{"CG", "MG", "FT", "IS", "LU", "BT", "EP", "DT"}
	b.ResetTimer()
	var rows []core.AppAccuracy
	for i := 0; i < b.N; i++ {
		rows = core.BuildAppAccuracy(rs, nas)
	}
	b.StopTimer()
	printArtifact(b, "f3", core.RenderAppAccuracy("Figure 3: NAS benchmarks", rows))
}

func BenchmarkFigure4(b *testing.B) {
	rs := suiteForBench(b)
	doe := []string{"BigFFT", "CrystalRouter", "AMG", "MiniFE", "LULESH", "CNS", "CMC", "Nekbone", "MultiGrid", "FillBoundary"}
	b.ResetTimer()
	var rows []core.AppAccuracy
	for i := 0; i < b.N; i++ {
		rows = core.BuildAppAccuracy(rs, doe)
	}
	b.StopTimer()
	printArtifact(b, "f4", core.RenderAppAccuracy("Figure 4: DOE applications", rows))
}

func BenchmarkFigure5(b *testing.B) {
	rs := suiteForBench(b)
	b.ResetTimer()
	var f5 core.Figure5
	for i := 0; i < b.N; i++ {
		f5 = core.BuildFigure5(rs)
	}
	b.StopTimer()
	printArtifact(b, "f5", f5.Render())
}

func BenchmarkTableIVAndRates(b *testing.B) {
	rs := suiteForBench(b)
	b.ResetTimer()
	var study *core.PredictionStudy
	var err error
	for i := 0; i < b.N; i++ {
		// Fewer CV runs than the paper's 100 keep the benchmark honest
		// about per-iteration cost; diffreport -predict runs the full 100.
		study, err = core.BuildPredictionStudy(rs, 25, 5, 2016)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printArtifact(b, "t4", study.RenderTable4(10)+"\n"+study.RenderRates())
	b.ReportMetric(100*study.Model.SuccessRate(), "%success")
	b.ReportMetric(100*study.NaiveRate, "%naive")
}

// ---- Scheme-level costs (the substance behind Table II / Figure 1) ----

func benchTrace(b *testing.B) (*trace.Columns, *machine.Config) {
	b.Helper()
	p := workload.Params{App: "MiniFE", Class: "A", Ranks: 64, Machine: "hopper", Seed: 7}
	tr, err := workload.MaterializeColumns(p)
	if err != nil {
		b.Fatal(err)
	}
	mach, err := machine.New(p.Machine, p.Ranks, 0)
	if err != nil {
		b.Fatal(err)
	}
	return tr, mach
}

func BenchmarkSchemeMFACT(b *testing.B) {
	tr, mach := benchTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mfact.Model(tr, mach, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func benchScheme(b *testing.B, m simnet.Model) {
	tr, mach := benchTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mpisim.Replay(tr, m, mach, simnet.Config{}, mpisim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchemePacket(b *testing.B)     { benchScheme(b, simnet.Packet) }
func BenchmarkSchemeFlow(b *testing.B)       { benchScheme(b, simnet.Flow) }
func BenchmarkSchemePacketFlow(b *testing.B) { benchScheme(b, simnet.PacketFlow) }

// BenchmarkPacketFlowPacketSize sweeps the packet-flow model's packet
// size over the 1–8 KiB range the SST/Macro developers recommend (the
// scalability-vs-accuracy knob the paper describes).
func BenchmarkPacketFlowPacketSize(b *testing.B) {
	tr, mach := benchTrace(b)
	for _, kb := range []int64{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("%dKiB", kb), func(b *testing.B) {
			var total string
			for i := 0; i < b.N; i++ {
				res, err := mpisim.Replay(tr, simnet.PacketFlow, mach,
					simnet.Config{PacketBytes: kb << 10}, mpisim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				total = res.Total.String()
			}
			b.StopTimer()
			printArtifact(b, fmt.Sprintf("psz%d", kb), fmt.Sprintf("packet-flow @%dKiB predicts %s", kb, total))
		})
	}
}

// BenchmarkGroundTruth measures trace materialization (generation +
// detailed execution with noise), the cost of producing one "measured"
// trace.
func BenchmarkGroundTruth(b *testing.B) {
	p := workload.Params{App: "LULESH", Class: "A", Ranks: 64, Machine: "edison", Seed: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.MaterializeColumns(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlacementAblation compares task placements for an
// all-to-all-heavy trace: packed (linear) allocations concentrate
// traffic on few links; fragmented (strided/scattered) allocations buy
// bisection. The metric of interest is the simulated time, reported
// per placement.
func BenchmarkPlacementAblation(b *testing.B) {
	p := workload.Params{App: "FT", Class: "A", Ranks: 96, Machine: "hopper", Seed: 13}
	tr, err := workload.GenerateColumns(p)
	if err != nil {
		b.Fatal(err)
	}
	for _, pl := range []struct {
		name string
		pol  machine.Placement
	}{
		{"linear", machine.PlaceLinear},
		{"strided", machine.PlaceStrided},
		{"scattered", machine.PlaceScattered},
	} {
		b.Run(pl.name, func(b *testing.B) {
			mach, err := machine.New(p.Machine, p.Ranks, 0)
			if err != nil {
				b.Fatal(err)
			}
			mach.Place(pl.pol)
			var total string
			for i := 0; i < b.N; i++ {
				res, err := mpisim.Replay(tr, simnet.PacketFlow, mach, simnet.Config{}, mpisim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				total = res.Total.String()
			}
			b.StopTimer()
			printArtifact(b, "place-"+pl.name, fmt.Sprintf("FT@96 %s placement → predicted %s", pl.name, total))
		})
	}
}
