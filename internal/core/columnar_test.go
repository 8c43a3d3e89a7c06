package core

import (
	"reflect"
	"testing"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/mfact"
	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/simnet"
	"hpctradeoff/internal/workload"
)

// TestColumnarReplayBitIdentical is the determinism contract for the
// columnar trace core: for every application in the suite, replaying
// the columnar representation (built natively, never materialized)
// must produce results bit-identical to replaying the classic
// array-of-structs trace — for MFACT and for every packet simulator that supports the trace. Any divergence means
// the Source access path changed replay semantics, not just layout.
func TestColumnarReplayBitIdentical(t *testing.T) {
	for i, app := range workload.Apps() {
		t.Run(app, func(t *testing.T) {
			p := workload.Params{App: app, Class: "S", Ranks: 8, Machine: "edison", Seed: int64(300 + i)}
			tr, err := workload.Generate(p)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			cols, err := workload.GenerateColumns(p)
			if err != nil {
				t.Fatalf("GenerateColumns: %v", err)
			}
			mach, err := machine.New(p.Machine, p.Ranks, 0)
			if err != nil {
				t.Fatalf("machine: %v", err)
			}

			// MFACT: the logical-clock model over the full standard sweep.
			want, err := mfact.Model(tr, mach, nil)
			if err != nil {
				t.Fatalf("mfact.Model(Trace): %v", err)
			}
			got, err := mfact.ModelSource(cols, mach, nil)
			if err != nil {
				t.Fatalf("mfact.ModelSource(Columns): %v", err)
			}
			requireSameMFACT(t, "mfact", want, got)

			// Packet simulation: every model that can replay this trace.
			for _, model := range simnet.Models() {
				if !simnet.Supports(model, tr.Meta.UsesCommSplit, tr.Meta.UsesThreadMultiple) {
					continue
				}
				wr, err := mpisim.Replay(tr, model, mach, simnet.Config{}, mpisim.Options{})
				if err != nil {
					t.Fatalf("%s: Replay(Trace): %v", model, err)
				}
				gr, err := mpisim.ReplaySource(cols, model, mach, simnet.Config{}, mpisim.Options{})
				if err != nil {
					t.Fatalf("%s: ReplaySource(Columns): %v", model, err)
				}
				if wr.Total != gr.Total || wr.Comm != gr.Comm || wr.Events != gr.Events {
					t.Fatalf("%s: Trace {total %v comm %v events %d} vs Columns {total %v comm %v events %d}",
						model, wr.Total, wr.Comm, wr.Events, gr.Total, gr.Comm, gr.Events)
				}
				for r := range wr.RankFinish {
					if wr.RankFinish[r] != gr.RankFinish[r] {
						t.Fatalf("%s: rank %d finish %v vs %v", model, r, wr.RankFinish[r], gr.RankFinish[r])
					}
					if wr.RankComm[r] != gr.RankComm[r] {
						t.Fatalf("%s: rank %d comm %v vs %v", model, r, wr.RankComm[r], gr.RankComm[r])
					}
				}
			}
		})
	}
}

// TestCampaignSourceNativeBitIdentical is the campaign-level identity
// contract of the Source-native pipeline: for every application in the
// suite, the full RunOne path (columnar materialization, session-held
// scheme replays, Source-walk feature extraction) must produce a
// TraceResult exactly equal — field for field, except the
// wall-clock-dependent Outcome.Wall — to running the same schemes over
// the classic materialized array-of-structs trace via the deprecated
// RunOnTrace path.
func TestCampaignSourceNativeBitIdentical(t *testing.T) {
	rn, err := NewRunner(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, app := range workload.Apps() {
		t.Run(app, func(t *testing.T) {
			p := workload.Params{App: app, Class: "S", Ranks: 8, Machine: "edison", Seed: int64(300 + i)}

			// Source-native path, with sessions shared across the suite
			// exactly as a campaign worker would share them.
			got, err := rn.RunOne(p, RunOptions{})
			if err != nil {
				t.Fatalf("RunOne (source-native): %v", err)
			}

			// Materialized path: stamped array-of-structs trace.
			tr, err := workload.Materialize(p)
			if err != nil {
				t.Fatalf("Materialize: %v", err)
			}
			mach, err := machine.New(p.Machine, p.Ranks, p.RanksPerNode)
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunOnTrace(tr, mach, p)
			if err != nil {
				t.Fatalf("RunOnTrace (materialized): %v", err)
			}

			if got.ID != want.ID || got.Measured != want.Measured ||
				got.MeasuredComm != want.MeasuredComm ||
				got.CommFraction != want.CommFraction || got.Events != want.Events {
				t.Fatalf("measured fields differ:\ngot  %s %v %v %v %d\nwant %s %v %v %v %d",
					got.ID, got.Measured, got.MeasuredComm, got.CommFraction, got.Events,
					want.ID, want.Measured, want.MeasuredComm, want.CommFraction, want.Events)
			}
			if !reflect.DeepEqual(got.Features, want.Features) {
				t.Fatalf("feature vectors differ:\ngot  %v\nwant %v", got.Features, want.Features)
			}
			if len(got.Schemes) != len(want.Schemes) {
				t.Fatalf("scheme sets differ: %d vs %d", len(got.Schemes), len(want.Schemes))
			}
			for name, w := range want.Schemes {
				g, ok := got.Schemes[name]
				if !ok {
					t.Fatalf("scheme %s missing from source-native result", name)
				}
				// Wall is wall-clock noise; everything else must be
				// bit-identical, including the mfact sweep internals.
				gm, wm := g.Model, w.Model
				g.Wall, w.Wall = 0, 0
				g.Model, w.Model = nil, nil
				if g != w {
					t.Fatalf("scheme %s outcome differs:\ngot  %+v\nwant %+v", name, g, w)
				}
				if (gm == nil) != (wm == nil) {
					t.Fatalf("scheme %s mfact result presence differs", name)
				}
				if wm != nil {
					requireSameMFACT(t, name, wm, gm)
				}
			}
		})
	}
}

func requireSameMFACT(t *testing.T, which string, want, got *mfact.Result) {
	t.Helper()
	if got.Events != want.Events || got.Class != want.Class {
		t.Fatalf("%s: events/class %d/%v, want %d/%v", which, got.Events, got.Class, want.Events, want.Class)
	}
	for k := range want.Totals {
		if got.Totals[k] != want.Totals[k] {
			t.Fatalf("%s: config %d total %v, want %v", which, k, got.Totals[k], want.Totals[k])
		}
		if got.Comms[k] != want.Comms[k] {
			t.Fatalf("%s: config %d comm %v, want %v", which, k, got.Comms[k], want.Comms[k])
		}
		if got.PerConfig[k] != want.PerConfig[k] {
			t.Fatalf("%s: config %d counters %+v, want %+v", which, k, got.PerConfig[k], want.PerConfig[k])
		}
	}
}
