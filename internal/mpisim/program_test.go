package mpisim_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unsafe"

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

// TestRopIs24Bytes pins the op size a program's memory and image scale
// with.
func TestRopIs24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(mpisim.Rop{}); got != 24 {
		t.Fatalf("Rop is %d bytes, want 24", got)
	}
}

const programBytesFile = "testdata/program_bytes.txt"

// TestProgramBytes holds the program size of six small study traces
// exactly: ops, channels, collective templates and the ops they hold,
// and image bytes. A change to lowering or to the image layout that
// moves them rewrites the fixture with -update and says why.
func TestProgramBytes(t *testing.T) {
	var got bytes.Buffer
	fmt.Fprintln(&got, "# app class ranks machine: ops chans templates template_ops image_bytes")
	for _, p := range workload.Filter(workload.Suite(), 8, 64)[:6] {
		cols, err := workload.GenerateColumns(p)
		if err != nil {
			t.Fatalf("%s: %v", p.App, err)
		}
		prog, err := mpisim.Lower(cols)
		if err != nil {
			t.Fatalf("%s: %v", p.App, err)
		}
		var img bytes.Buffer
		if err := prog.WriteImage(&img); err != nil {
			t.Fatalf("%s: %v", p.App, err)
		}
		ops := 0
		for r := 0; r < prog.NumRanks(); r++ {
			ops += len(prog.Rank(r))
		}
		fmt.Fprintf(&got, "%s %s %d %s: %d %d %d %d %d\n", p.App, p.Class, p.Ranks, p.Machine,
			ops, prog.NumChans(), prog.NumTemplates(), prog.TemplateOps(), img.Len())
	}
	path := filepath.FromSlash(programBytesFile)
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run TestProgramBytes -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("program sizes changed:\n got\n%s\nwant\n%s", got.Bytes(), want)
	}
}
