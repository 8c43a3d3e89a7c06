package workload

import (
	"testing"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/mfact"
	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/simnet"
	"hpctradeoff/internal/trace"
)

func TestGenerateAllAppsValidate(t *testing.T) {
	for _, app := range Apps() {
		for _, ranks := range []int{8, 27, 64} {
			p := Params{App: app, Class: "S", Ranks: ranks, Machine: "edison", Seed: 1}
			tr, err := GenerateColumns(p)
			if err != nil {
				t.Fatalf("%s/%d: %v", app, ranks, err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("%s/%d: invalid: %v", app, ranks, err)
			}
			if tr.NumEvents() == 0 {
				t.Errorf("%s/%d: empty trace", app, ranks)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Params{App: "CrystalRouter", Class: "A", Ranks: 16, Machine: "hopper", Seed: 99}
	a, err := GenerateColumns(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateColumns(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEvents() != b.NumEvents() {
		t.Fatalf("event counts differ: %d vs %d", a.NumEvents(), b.NumEvents())
	}
	for r := 0; r < a.NumRanks(); r++ {
		ra, rb := rankEvents(a, r), rankEvents(b, r)
		for i := range ra {
			ea, eb := ra[i], rb[i]
			if ea.Op != eb.Op || ea.Bytes != eb.Bytes || ea.Peer != eb.Peer {
				t.Fatalf("rank %d event %d differs: %v vs %v", r, i, ea.String(), eb.String())
			}
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := GenerateColumns(Params{App: "HPL", Class: "B", Ranks: 8}); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := GenerateColumns(Params{App: "CG", Class: "Z", Ranks: 8}); err == nil {
		t.Error("unknown class accepted")
	}
	if _, err := GenerateColumns(Params{App: "CG", Class: "B", Ranks: 1}); err == nil {
		t.Error("1 rank accepted")
	}
}

func TestCapabilityFlags(t *testing.T) {
	bf, err := GenerateColumns(Params{App: "BigFFT", Class: "S", Ranks: 16, Machine: "edison", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bf.Meta.UsesCommSplit {
		t.Error("BigFFT should use comm split")
	}
	fb, err := GenerateColumns(Params{App: "FillBoundary", Class: "S", Ranks: 16, Machine: "edison", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !fb.Meta.UsesThreadMultiple {
		t.Error("FillBoundary should use thread multiple")
	}
	ep, err := GenerateColumns(Params{App: "EP", Class: "S", Ranks: 16, Machine: "edison", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ep.Meta.UsesCommSplit || ep.Meta.UsesThreadMultiple {
		t.Error("EP should have no special capabilities")
	}
}

func TestMaterializeStampsMeasuredTimes(t *testing.T) {
	p := Params{App: "MiniFE", Class: "S", Ranks: 16, Machine: "cielito", Seed: 5}
	tr, err := MaterializeColumns(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("materialized trace invalid: %v", err)
	}
	if trace.SourceMeasuredTotal(tr) <= 0 {
		t.Error("no measured total time")
	}
	if f := trace.SourceCommFraction(tr); f <= 0 || f >= 1 {
		t.Errorf("comm fraction = %v, want in (0,1)", f)
	}
}

func TestSuiteShape(t *testing.T) {
	suite := Suite()
	if len(suite) != 235 {
		t.Fatalf("suite has %d traces, want 235", len(suite))
	}
	// Table Ia buckets.
	buckets := map[string]int{}
	bucketOf := func(r int) string {
		switch {
		case r == 64:
			return "64"
		case r <= 128:
			return "65-128"
		case r <= 256:
			return "129-256"
		case r <= 512:
			return "257-512"
		case r <= 1024:
			return "513-1024"
		default:
			return "1025-1728"
		}
	}
	ids := map[string]bool{}
	for _, p := range suite {
		buckets[bucketOf(p.Ranks)]++
		if p.Ranks < 64 || p.Ranks > 1728 {
			t.Errorf("ranks %d outside the paper's range", p.Ranks)
		}
		id := p.App + p.Class + string(rune(p.Ranks)) + p.Machine
		ids[id] = true
	}
	want := map[string]int{
		"64": 72, "65-128": 18, "129-256": 80,
		"257-512": 12, "513-1024": 37, "1025-1728": 16,
	}
	for k, v := range want {
		if buckets[k] != v {
			t.Errorf("bucket %s has %d traces, want %d", k, buckets[k], v)
		}
	}
	// The Table II configurations must be present.
	for _, wantP := range []struct {
		app   string
		ranks int
	}{{"CMC", 1024}, {"LULESH", 512}, {"MiniFE", 1152}} {
		found := false
		for _, p := range suite {
			if p.App == wantP.app && p.Ranks == wantP.ranks {
				found = true
			}
		}
		if !found {
			t.Errorf("suite missing %s@%d (Table II)", wantP.app, wantP.ranks)
		}
	}
}

func TestSuiteSmall(t *testing.T) {
	s := SuiteSmall(10, 128)
	if len(s) == 0 {
		t.Fatal("empty small suite")
	}
	for _, p := range s {
		if p.Ranks > 128 {
			t.Errorf("rank cap violated: %d", p.Ranks)
		}
	}
}

// TestEndToEndClassBehaviours checks that the suite produces the
// qualitative classes the study depends on: EP computation-bound, CMC
// load-imbalanced, FT/IS communication-sensitive.
func TestEndToEndClassBehaviours(t *testing.T) {
	cases := []struct {
		app  string
		want func(*mfact.Result) bool
		desc string
	}{
		{"EP", func(r *mfact.Result) bool { return r.Class == mfact.ComputationBound }, "computation-bound"},
		{"CMC", func(r *mfact.Result) bool {
			return r.Class == mfact.LoadImbalanceBound || r.Class == mfact.ComputationBound
		}, "imbalance/compute-bound"},
		// FT sits near the sensitivity boundary at 64 ranks (heavy FFT
		// compute dilutes the transpose); require meaningful bandwidth
		// sensitivity rather than the full 5% cut.
		{"FT", func(r *mfact.Result) bool { return r.BandwidthSensitivity() > 0.03 }, "bandwidth-leaning"},
		{"IS", func(r *mfact.Result) bool { return r.CommSensitive() }, "communication-sensitive"},
	}
	for _, c := range cases {
		p := Params{App: c.app, Class: "A", Ranks: 64, Machine: "edison", Seed: 3}
		tr, err := MaterializeColumns(p)
		if err != nil {
			t.Fatalf("%s: %v", c.app, err)
		}
		mach, err := machine.New(p.Machine, p.Ranks, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mfact.Model(tr, mach, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.app, err)
		}
		if !c.want(res) {
			t.Errorf("%s: class=%v bwSens=%.3f latSens=%.3f waitFrac=%.3f, want %s",
				c.app, res.Class, res.BandwidthSensitivity(), res.LatencySensitivity(),
				res.WaitFraction(), c.desc)
		}
	}
}

// TestModelVsSimulationAgreement: for a compute-bound app the packet-
// flow simulation and MFACT model must agree within a few percent
// (the paper's central DIFF ≤ 2% population).
func TestModelVsSimulationAgreement(t *testing.T) {
	p := Params{App: "EP", Class: "S", Ranks: 32, Machine: "hopper", Seed: 9}
	tr, err := MaterializeColumns(p)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := machine.New(p.Machine, p.Ranks, 0)
	if err != nil {
		t.Fatal(err)
	}
	model, err := mfact.Model(tr, mach, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := mpisim.Replay(tr, simnet.PacketFlow, mach, simnet.Config{}, mpisim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	diff := float64(sim.Total)/float64(model.Total()) - 1
	if diff < -0.05 || diff > 0.05 {
		t.Errorf("EP DIFFtotal = %.3f, want within ±5%% (sim %v vs model %v)", diff, sim.Total, model.Total())
	}
}

// TestFatTreeMachineEndToEnd runs the full pipeline on the hypothetical
// fat-tree cluster, exercising the third topology class.
func TestFatTreeMachineEndToEnd(t *testing.T) {
	p := Params{App: "CG", Class: "A", Ranks: 64, Machine: "fattree", Seed: 12}
	tr, err := MaterializeColumns(p)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := machine.New("fattree", p.Ranks, 0)
	if err != nil {
		t.Fatal(err)
	}
	model, err := mfact.Model(tr, mach, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := mpisim.Replay(tr, simnet.PacketFlow, mach, simnet.Config{}, mpisim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(sim.Total) / float64(model.Total())
	if ratio < 0.8 || ratio > 1.3 {
		t.Errorf("fat-tree sim/model = %.3f, want near 1", ratio)
	}
}

// rankEvents gathers rank r's events of tr.
func rankEvents(tr trace.Source, r int) []trace.Event {
	evs := make([]trace.Event, tr.RankLen(r))
	for i := range evs {
		tr.EventAt(r, i, &evs[i])
	}
	return evs
}
