package main

import (
	"errors"
	"os"
	"testing"

	"hpctradeoff/internal/spec"
	"hpctradeoff/internal/trace"
	"hpctradeoff/internal/workload"
)

// TestTraceFileNamesDistinct checks that every entry of the built-in
// suite and of the variability campaign spec gets its own file name;
// both manifests hold entries that differ only in seed or noise.
func TestTraceFileNamesDistinct(t *testing.T) {
	s, err := spec.Load("../../specs/variability.yaml")
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	for name, manifest := range map[string][]workload.Params{
		"Suite":       workload.Suite(),
		"variability": c.Manifest,
	} {
		seen := make(map[string]workload.Params, len(manifest))
		for _, p := range manifest {
			n := traceFileName(p)
			if q, dup := seen[n]; dup {
				t.Fatalf("%s: %+v and %+v both named %s", name, q, p, n)
			}
			seen[n] = p
		}
		if len(seen) < 2 {
			t.Fatalf("%s: only %d entries", name, len(seen))
		}
	}
}

func TestWriteTraceRefusesOverwrite(t *testing.T) {
	b := trace.NewBuilder(trace.Meta{App: "w", NumRanks: 2})
	b.Compute(0, 1)
	tr, err := b.BuildColumns()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	p := workload.Params{App: "w", Class: "S", Ranks: 2, Machine: "edison", Seed: 1}
	if err := writeTrace(dir, p, tr, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := writeTrace(dir, p, tr, 1, 1); !errors.Is(err, os.ErrExist) {
		t.Fatalf("second write err = %v, want os.ErrExist", err)
	}
}
