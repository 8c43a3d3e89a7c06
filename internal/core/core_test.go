package core

import (
	"os"
	"strings"
	"testing"
	"time"

	"hpctradeoff/internal/scheme"
	"hpctradeoff/internal/trace"
	"hpctradeoff/internal/workload"
)

func TestRunOneComputeBound(t *testing.T) {
	p := workload.Params{App: "EP", Class: "S", Ranks: 16, Machine: "cielito", Seed: 1}
	r, err := RunOne(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Measured <= 0 || r.Model() == nil {
		t.Fatal("missing results")
	}
	for _, m := range []string{scheme.Packet, scheme.Flow, scheme.PacketFlow} {
		s := r.Schemes[m]
		if !s.OK {
			t.Errorf("%s failed: %s", m, s.Err)
		}
		if s.Total <= 0 {
			t.Errorf("%s total = %v", m, s.Total)
		}
	}
	if d, ok := r.DiffTotal(scheme.PacketFlow); !ok || d > 0.05 {
		t.Errorf("EP DIFFtotal = %v (ok=%v), want small", d, ok)
	}
	if g := r.Group(); g != GroupComputation {
		t.Errorf("EP group = %v", g)
	}
	if len(r.Features) != 35 {
		t.Errorf("features = %d", len(r.Features))
	}
}

func TestRunOneCapabilityGaps(t *testing.T) {
	// BigFFT splits communicators: flow must fail, packet-flow succeed.
	p := workload.Params{App: "BigFFT", Class: "S", Ranks: 16, Machine: "edison", Seed: 2}
	r, err := RunOne(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Schemes[scheme.Flow].OK {
		t.Error("flow should fail on comm-split trace")
	}
	if r.Schemes[scheme.Flow].ErrKind != string(KindUnsupported) {
		t.Errorf("flow ErrKind = %q, want %q", r.Schemes[scheme.Flow].ErrKind, KindUnsupported)
	}
	if !r.Schemes[scheme.PacketFlow].OK {
		t.Error("packet-flow should handle comm-split trace")
	}
	if _, ok := r.DiffTotal(scheme.Flow); ok {
		t.Error("DiffTotal should be undefined for a failed backend")
	}
}

// A fifth scheme outside the built-in table runs through a Runner built
// over it with no change to internal/core: it appears in the
// TraceResult keyed by its name, alongside the four built-ins.
func TestRunOneIncludesRegisteredFifthScheme(t *testing.T) {
	toy := testScheme{name: "toy-count", kind: scheme.KindModel, run: func(src trace.Source) (scheme.Outcome, error) {
		return scheme.Outcome{
			OK:     true,
			Total:  1,
			Comm:   1,
			Events: uint64(trace.SourceNumEvents(src)),
		}, nil
	}}

	p := workload.Params{App: "EP", Class: "S", Ranks: 16, Machine: "cielito", Seed: 71}
	r, err := runnerOver(append(scheme.All(), toy)...)(p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o, ok := r.Schemes["toy-count"]
	if !ok {
		t.Fatalf("fifth scheme missing from result: %v", r.Schemes)
	}
	if !o.OK || o.Scheme != "toy-count" || o.Kind != scheme.KindModel {
		t.Errorf("fifth scheme outcome = %+v", o)
	}
	if o.Events != uint64(r.Events) {
		t.Errorf("fifth scheme saw %d events, trace has %d", o.Events, r.Events)
	}
	// The built-ins still ran.
	if r.Model() == nil || !r.Schemes[scheme.PacketFlow].OK {
		t.Error("built-in schemes missing alongside the fifth")
	}
}

func TestRunSuiteAndExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run in -short mode")
	}
	ps := []workload.Params{
		{App: "EP", Class: "A", Ranks: 32, Machine: "cielito", Seed: 1},
		{App: "FT", Class: "A", Ranks: 32, Machine: "hopper", Seed: 2},
		{App: "IS", Class: "A", Ranks: 32, Machine: "edison", Seed: 3},
		{App: "CMC", Class: "A", Ranks: 32, Machine: "cielito", Seed: 4},
		{App: "LULESH", Class: "A", Ranks: 32, Machine: "hopper", Seed: 5},
		{App: "BigFFT", Class: "A", Ranks: 32, Machine: "edison", Seed: 6},
		{App: "CrystalRouter", Class: "A", Ranks: 32, Machine: "cielito", Seed: 7},
		{App: "MiniFE", Class: "A", Ranks: 32, Machine: "hopper", Seed: 8},
	}
	calls := 0
	rs, err := RunSuite(ps, 4, func(done, total int, r *TraceResult) { calls++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(ps) || calls != len(ps) {
		t.Fatalf("results %d, progress calls %d", len(rs), calls)
	}

	t1 := BuildTable1(rs)
	if t1.Total != len(ps) {
		t.Errorf("Table1 total = %d", t1.Total)
	}
	if !strings.Contains(t1.Render(), "Table I(a)") {
		t.Error("Table1 render missing header")
	}

	// Figure 1 ranks schemes by cost. Tier-1 may not depend on the
	// wall clock, so cost here is the exact event count each outcome
	// records (one unit of Wall per event): MFACT walks the trace once,
	// the simulators execute several DES events per trace event.
	for _, r := range rs {
		for name, o := range r.Schemes {
			o.Wall = time.Duration(o.Events)
			r.Schemes[name] = o
		}
	}
	f1 := BuildFigure1(rs, 0)
	// BigFFT fails flow, so it is excluded; all others should count.
	if f1.Used == 0 || f1.Used > len(ps)-1 {
		t.Errorf("Figure1 used %d traces", f1.Used)
	}
	if f1.FirstPlace["MFACT"] != 1 {
		t.Errorf("MFACT first place share by events = %v, want 1", f1.FirstPlace["MFACT"])
	}
	if !strings.Contains(f1.Render(), "Figure 1") {
		t.Error("Figure1 render broken")
	}

	f2 := BuildFigure2(rs)
	if f2.TotalDiff[scheme.PacketFlow].Len() == 0 {
		t.Error("Figure2 has no packet-flow samples")
	}
	// The flow backend completed fewer traces than packet-flow
	// (BigFFT refused), reproducing the paper's completion gap.
	if f2.TotalDiff[scheme.Flow].Len() >= f2.TotalDiff[scheme.PacketFlow].Len() {
		t.Error("flow completed as many traces as packet-flow; capability gap lost")
	}

	acc := BuildAppAccuracy(rs, []string{"EP", "FT", "IS"})
	if len(acc) != 3 {
		t.Fatalf("app accuracy rows = %d", len(acc))
	}
	for _, a := range acc {
		if a.SimOverMeasured <= 0 || a.SimOverMeasured > 1.2 {
			t.Errorf("%s sim/measured = %v", a.App, a.SimOverMeasured)
		}
		// Predictions should undershoot the measured time (noise is
		// not replayed), with simulation at least as close as modeling.
		if a.ModelOverMeasured > a.SimOverMeasured+0.05 {
			t.Errorf("%s: model (%v) closer to measured than sim (%v)?", a.App, a.ModelOverMeasured, a.SimOverMeasured)
		}
	}

	f5 := BuildFigure5(rs)
	if len(f5.Counts) == 0 {
		t.Error("Figure5 empty")
	}
	if !strings.Contains(f5.Render(), "Figure 5") {
		t.Error("Figure5 render broken")
	}
}

func TestBuildTable2Selection(t *testing.T) {
	rs := []*TraceResult{
		{Params: workload.Params{App: "CMC", Ranks: 64}, Schemes: map[string]scheme.Outcome{
			scheme.MFACT: {Kind: scheme.KindModel, OK: true, Wall: time.Millisecond},
		}},
		{Params: workload.Params{App: "CMC", Ranks: 1024}, Schemes: map[string]scheme.Outcome{
			scheme.MFACT:      {Kind: scheme.KindModel, OK: true, Wall: time.Millisecond},
			scheme.Packet:     {Kind: scheme.KindSimulation, OK: true, Wall: 100 * time.Millisecond},
			scheme.Flow:       {Kind: scheme.KindSimulation, OK: true, Wall: 20 * time.Millisecond},
			scheme.PacketFlow: {Kind: scheme.KindSimulation, OK: true, Wall: 10 * time.Millisecond},
		}},
	}
	rows := BuildTable2(rs, map[string]int{"CMC": 1024})
	if len(rows) != 1 || rows[0].Name != "CMC(1024)" {
		t.Fatalf("rows = %+v", rows)
	}
	if !strings.Contains(RenderTable2(rows), "CMC(1024)") {
		t.Error("render broken")
	}
}

func TestWriteFigures(t *testing.T) {
	p := workload.Params{App: "FT", Class: "S", Ranks: 16, Machine: "edison", Seed: 4}
	r, err := RunOne(p)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths, err := WriteFigures(dir, []*TraceResult{r}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 8 {
		t.Fatalf("wrote %d figures, want 8", len(paths))
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "<svg") {
			t.Errorf("%s is not an SVG", p)
		}
	}
}

func TestBuildPredictionStudySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run in -short mode")
	}
	var ps []workload.Params
	apps := []string{"EP", "IS", "CMC", "FT", "LULESH", "CrystalRouter"}
	for i, app := range apps {
		for j, ranks := range []int{16, 32} {
			ps = append(ps, workload.Params{
				App: app, Class: "A", Ranks: ranks,
				Machine: []string{"cielito", "hopper", "edison"}[(i+j)%3],
				Seed:    int64(i*7 + j),
			})
		}
	}
	rs, err := RunSuite(ps, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	study, err := BuildPredictionStudy(rs, 20, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Observations) != len(ps) {
		t.Errorf("observations = %d, want %d", len(study.Observations), len(ps))
	}
	if study.NaiveRate <= 0.3 {
		t.Errorf("naive rate = %v, implausibly low", study.NaiveRate)
	}
	if sr := study.Model.SuccessRate(); sr < 0.4 || sr > 1 {
		t.Errorf("model success rate = %v", sr)
	}
	if !strings.Contains(study.RenderTable4(5), "Table IV") {
		t.Error("Table IV render broken")
	}
	if !strings.Contains(study.RenderRates(), "success rate") {
		t.Error("rates render broken")
	}
}
