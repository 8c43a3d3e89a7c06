package core

import (
	"path/filepath"
	"testing"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/scheme"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/workload"
)

// A Runner's simulation sessions share one lowering of each trace. The
// tests below hold that economy to the path that shares nothing: every
// scheme's stateless Run on a freshly materialized trace.

// statelessResult is what RunOne(p) must equal: each registered
// scheme's stateless Run on p's trace, recorded the way runSource
// records outcomes.
func statelessResult(t *testing.T, p workload.Params) *TraceResult {
	t.Helper()
	cols, err := workload.MaterializeColumns(p)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := machine.New(p.Machine, p.Ranks, p.RanksPerNode)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := NewRunner([]string{scheme.MFACT}) // for the measured fields only
	if err != nil {
		t.Fatal(err)
	}
	res, err := rn.runSource(cols, nil, mach, p, scheme.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scheme.All() {
		out, err := s.Run(cols, mach, scheme.Options{})
		out.Scheme, out.Kind = s.Name(), s.Kind()
		if err != nil {
			out.OK, out.Err, out.ErrKind = false, err.Error(), string(Classify(err))
		}
		res.Schemes[s.Name()] = out
	}
	return res
}

// TestRunnerSharedLoweringAllApps runs one Runner over all 18
// generators — among them the traces the flow and packet backends
// refuse (BigFFT, MultiGrid, FillBoundary), whose refusal must poison
// neither the schemes after it nor the trace after it — and then over
// A, B, A, where B has A's shape exactly (same app, ranks and machine,
// another seed), so only the per-trace invalidation keeps B from
// replaying A's program and the second A from replaying B's.
func TestRunnerSharedLoweringAllApps(t *testing.T) {
	if testing.Short() {
		t.Skip("18-app sweep in -short mode")
	}
	ps := smallParams(workload.Apps()...)
	if len(ps) != 18 {
		t.Fatalf("%d generators, want the suite's 18", len(ps))
	}
	a := workload.Params{App: "LULESH", Class: "S", Ranks: 16, Machine: "hopper", Seed: 7}
	b := a
	b.Seed = 8
	ps = append(ps, a, b, a)

	rn, err := NewRunner(nil)
	if err != nil {
		t.Fatal(err)
	}
	refused := 0
	var totals []simtime.Time
	for _, p := range ps {
		got, err := rn.RunOne(p, RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", CampaignKey(p), err)
		}
		if err := sameResult(got, statelessResult(t, p)); err != nil {
			t.Errorf("%s: shared-session Runner diverged from stateless runs: %v", CampaignKey(p), err)
		}
		for _, o := range got.Schemes {
			if o.ErrKind == string(KindUnsupported) {
				refused++
			}
		}
		totals = append(totals, got.Schemes[scheme.Packet].Total)
	}
	if refused == 0 {
		t.Error("no scheme refused any trace; the unsupported path went untested")
	}
	n := len(totals)
	if totals[n-3] == totals[n-2] || totals[n-3] != totals[n-1] {
		t.Errorf("A, B, A packet totals are %v, %v, %v: want A ≠ B and A = A", totals[n-3], totals[n-2], totals[n-1])
	}
}

// TestRunnerColdEqualsWarm runs each trace three ways through Runners
// of the same kind: uncached (stamp, then the replays), through an
// empty cache (the same, plus a publish), and again through the now
// filled cache (no stamping at all: the replays read a mapped entry).
// The stamping replay runs through the same engine and matching code as
// the three that follow it and must leave nothing behind for them.
func TestRunnerColdEqualsWarm(t *testing.T) {
	cache := openTestCache(t, filepath.Join(t.TempDir(), "cache"))
	plain, err := NewRunner(nil)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewRunner(nil)
	if err != nil {
		t.Fatal(err)
	}
	cached.SetCache(cache)
	for _, p := range smallParams("CG", "FT", "LULESH") {
		want, err := plain.RunOne(p, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, pass := range []string{"cold", "warm"} {
			got, err := cached.RunOne(p, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := sameResult(got, want); err != nil {
				t.Errorf("%s, %s cache: %v", CampaignKey(p), pass, err)
			}
		}
	}
	if st := cache.Stats(); st.Hits != 3 || st.Misses != 3 {
		t.Errorf("cache saw %d hits and %d misses, want 3 and 3", st.Hits, st.Misses)
	}
}
