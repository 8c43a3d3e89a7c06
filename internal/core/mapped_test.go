package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/mfact"
	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/scheme"
	"hpctradeoff/internal/simnet"
	"hpctradeoff/internal/trace"
	"hpctradeoff/internal/workload"
)

// mapThrough writes c as a codec-v3 file and opens it again with
// OpenMapped, the way the trace cache and the file-based tools read
// traces: the returned columns alias the file mapping.
func mapThrough(t *testing.T, c *trace.Columns) *trace.Mapped {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.htrc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteColumnsV3(f, c); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := trace.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// TestColumnarReplayBitIdentical is the determinism contract of the
// zero-copy read path: for every application in the suite, replaying
// the columns a generator built on the heap and replaying the same
// trace mapped from its v3 file must give bit-identical results — for
// MFACT and for every packet simulator that supports the trace. Any
// divergence means the file layout or the aliasing changed replay
// semantics, not just where the bytes live.
func TestColumnarReplayBitIdentical(t *testing.T) {
	for i, app := range workload.Apps() {
		t.Run(app, func(t *testing.T) {
			p := workload.Params{App: app, Class: "S", Ranks: 8, Machine: "edison", Seed: int64(300 + i)}
			cols, err := workload.GenerateColumns(p)
			if err != nil {
				t.Fatalf("GenerateColumns: %v", err)
			}
			mapped := mapThrough(t, cols)
			mach, err := machine.New(p.Machine, p.Ranks, 0)
			if err != nil {
				t.Fatalf("machine: %v", err)
			}

			// MFACT: the logical-clock model over the full standard sweep.
			want, err := mfact.Model(cols, mach, nil)
			if err != nil {
				t.Fatalf("mfact.Model(heap): %v", err)
			}
			got, err := mfact.Model(mapped, mach, nil)
			if err != nil {
				t.Fatalf("mfact.Model(mapped): %v", err)
			}
			requireSameMFACT(t, "mfact", want, got)

			// Packet simulation: every model that can replay this trace.
			for _, model := range simnet.Models() {
				if !simnet.Supports(model, cols.Meta.UsesCommSplit, cols.Meta.UsesThreadMultiple) {
					continue
				}
				wr, err := mpisim.Replay(cols, model, mach, simnet.Config{}, mpisim.Options{})
				if err != nil {
					t.Fatalf("%s: Replay(heap): %v", model, err)
				}
				gr, err := mpisim.Replay(mapped, model, mach, simnet.Config{}, mpisim.Options{})
				if err != nil {
					t.Fatalf("%s: Replay(mapped): %v", model, err)
				}
				if wr.Total != gr.Total || wr.Comm != gr.Comm || wr.Events != gr.Events {
					t.Fatalf("%s: heap {total %v comm %v events %d} vs mapped {total %v comm %v events %d}",
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

// TestCampaignSourceNativeBitIdentical holds the campaign path to the
// path a trace file takes through the tools: for every application in
// the suite, RunOne (stamping, sessions shared across the suite, the
// stamper's retimed program adopted) must produce a TraceResult
// exactly equal — field for field, except the wall-clock-dependent
// Outcome.Wall — to a fresh Runner whose sessions lower the stamped
// trace after it was written as a v3 file and mapped back in.
func TestCampaignSourceNativeBitIdentical(t *testing.T) {
	rn, err := NewRunner(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, app := range workload.Apps() {
		t.Run(app, func(t *testing.T) {
			p := workload.Params{App: app, Class: "S", Ranks: 8, Machine: "edison", Seed: int64(300 + i)}

			got, err := rn.RunOne(p, RunOptions{})
			if err != nil {
				t.Fatalf("RunOne: %v", err)
			}

			cols, err := workload.MaterializeColumns(p)
			if err != nil {
				t.Fatalf("MaterializeColumns: %v", err)
			}
			mach, err := machine.New(p.Machine, p.Ranks, p.RanksPerNode)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewRunner(nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.runSource(mapThrough(t, cols), nil, mach, p, scheme.Options{})
			if err != nil {
				t.Fatalf("runSource (mapped file): %v", err)
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
					t.Fatalf("scheme %s missing from the campaign result", name)
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
