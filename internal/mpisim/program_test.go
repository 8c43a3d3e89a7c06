package mpisim_test

import (
	"bytes"
	"reflect"
	"testing"

	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/workload"
)

// suiteParams is one small trace per generator, with the platform noise
// axes on when noisy is set.
func suiteParams(noisy bool) []workload.Params {
	var ps []workload.Params
	for i, app := range workload.Apps() {
		p := workload.Params{App: app, Class: "S", Ranks: 16, Machine: []string{"cielito", "edison", "hopper"}[i%3], Seed: int64(40 + i)}
		if noisy {
			p.Noise = workload.Noise{LinkJitter: 0.2, NodeHetero: 0.1, OSNoise: 1, Seed: 3}
		}
		ps = append(ps, p)
	}
	return ps
}

// TestRetimeEqualsLowerOfStamped pins what lets the stamper's program
// serve the replays: the program MaterializeReplay returns — lowered
// from the generated trace, replayed to stamp it, then retimed — equals
// a fresh lowering of the stamped trace, on every generator, with and
// without platform noise.
func TestRetimeEqualsLowerOfStamped(t *testing.T) {
	for _, noisy := range []bool{false, true} {
		for _, p := range suiteParams(noisy) {
			cols, got, err := workload.MaterializeReplay(p, workload.Limits{})
			if err != nil {
				t.Fatalf("%s: %v", p.App, err)
			}
			want, err := mpisim.Lower(cols)
			if err != nil {
				t.Fatalf("%s: %v", p.App, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (noise %v): retimed program differs from the lowering of the stamped trace", p.App, noisy)
			}
		}
	}
}

// TestOpenedImageEqualsLowered writes every generator's program as an
// image and opens it back into a deep-equal program.
func TestOpenedImageEqualsLowered(t *testing.T) {
	for _, p := range suiteParams(false) {
		cols, err := workload.MaterializeColumns(p)
		if err != nil {
			t.Fatalf("%s: %v", p.App, err)
		}
		want, err := mpisim.Lower(cols)
		if err != nil {
			t.Fatalf("%s: %v", p.App, err)
		}
		var buf bytes.Buffer
		if err := want.WriteImage(&buf); err != nil {
			t.Fatalf("%s: %v", p.App, err)
		}
		got, err := mpisim.OpenProgram(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", p.App, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: opened image differs from the lowered program", p.App)
		}
		if err := got.Fits(cols); err != nil {
			t.Errorf("%s: %v", p.App, err)
		}
	}
}
