package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpctradeoff/internal/spec"
)

// triSpec is a 12-trace spec that lists all four schemes and carries a
// triage block whose seed and calibration differ from the flags'
// defaults.
const triSpec = `name: tri
schemes: [mfact, packet, flow, packetflow]
triage:
  threshold: 0.5
  seed: 7
  calibration: 4
groups:
  - apps: [EP, IS, CG, MG, FT, LU]
    classes: S
    ranks: 16
    machines: [cielito, edison]
    seeds: derived
`

const paperSpec = "../../specs/paper-235.yaml"

// writeSpec writes body to a spec file in a fresh directory.
func writeSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.yaml")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// compileArgs parses args as the command line and compiles the
// campaign they describe.
func compileArgs(t *testing.T, args ...string) (*spec.Compiled, error) {
	t.Helper()
	fs := flag.NewFlagSet("tradeoff", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := newFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parsing %v: %v", args, err)
	}
	return compileCampaign(fs, o)
}

func mustCompile(t *testing.T, args ...string) *spec.Compiled {
	t.Helper()
	c, err := compileArgs(t, args...)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return c
}

// TestFlagsOverrideSpecTriage: the -triage flags write single fields
// of the spec's triage block and keep the rest.
func TestFlagsOverrideSpecTriage(t *testing.T) {
	tri := writeSpec(t, triSpec)

	c := mustCompile(t, "-spec", tri, "-triage-threshold", "1")
	if p := c.Triage; p == nil || p.Threshold != 1 || p.Seed != 7 || p.Calibration != 4 {
		t.Errorf("-triage-threshold 1 over the spec: triage %+v, want threshold 1, seed 7, calibration 4", p)
	}

	c = mustCompile(t, "-spec", tri, "-triage")
	if p := c.Triage; p == nil || p.Threshold != 0.5 || p.Seed != 7 || p.Calibration != 4 {
		t.Errorf("-triage over the spec: triage %+v, want the spec's block unchanged", p)
	}
	if c.Hash() != mustCompile(t, "-spec", tri).Hash() {
		t.Error("-triage over a spec with a triage block changed the campaign")
	}

	c = mustCompile(t, "-spec", tri, "-triage-seed", "9", "-triage-budget", "3,5s")
	if p := c.Triage; p == nil || p.Seed != 9 || p.MaxEscalations != 3 || p.MaxWall.String() != "5s" || p.Calibration != 4 {
		t.Errorf("-triage-seed 9 -triage-budget 3,5s over the spec: triage %+v", p)
	}

	if c := mustCompile(t, "-spec", tri, "-triage=false"); c.Triage != nil {
		t.Errorf("-triage=false kept the spec's triage block %+v", c.Triage)
	}

	c = mustCompile(t, "-stride", "24", "-triage")
	if p := c.Triage; p == nil || p.Threshold != 0.5 || p.Seed != 1 {
		t.Errorf("-triage over the built-in study: triage %+v, want threshold 0.5, seed 1", p)
	}
}

// TestTriageFlagsNeedTriage: a -triage field flag with no triage
// block anywhere is a usage error, not a silently untiered campaign.
func TestTriageFlagsNeedTriage(t *testing.T) {
	for _, args := range [][]string{
		{"-stride", "24", "-maxranks", "64", "-triage-threshold", "0.3", "-triage-seed", "9"},
		{"-triage-budget", "12"},
		{"-spec", writeSpec(t, triSpec), "-triage=false", "-triage-seed", "3"},
	} {
		if _, err := compileArgs(t, args...); err == nil || !strings.Contains(err.Error(), "-triage") {
			t.Errorf("%v: err = %v, want a usage error naming -triage", args, err)
		}
	}
}

// TestSchemesFlagWritesSpec: -schemes records the hash of the spec
// with its scheme list edited to the selection.
func TestSchemesFlagWritesSpec(t *testing.T) {
	tri := writeSpec(t, triSpec)
	edited := writeSpec(t, strings.Replace(triSpec, "[mfact, packet, flow, packetflow]", "[mfact, packet]", 1))
	got := mustCompile(t, "-spec", tri, "-schemes", "mfact,packet")
	want := mustCompile(t, "-spec", edited)
	if got.Hash() != want.Hash() {
		t.Errorf("-spec tri.yaml -schemes mfact,packet hashes %s, want %s (the spec edited to [mfact, packet])", got.Hash(), want.Hash())
	}
	if _, err := compileArgs(t, "-schemes", "mfact,nosuch"); err == nil {
		t.Error("an unknown scheme compiled")
	}
}

// TestBuiltinStudyIsPaper235: without -spec the campaign is
// specs/paper-235.yaml, hash included, and budget flags land in the
// hash either way.
func TestBuiltinStudyIsPaper235(t *testing.T) {
	builtin := mustCompile(t, "-stride", "24", "-maxranks", "64")
	file := mustCompile(t, "-spec", paperSpec, "-stride", "24", "-maxranks", "64")
	if builtin.Hash() != file.Hash() || len(builtin.Manifest) != 235 {
		t.Errorf("built-in study hashes %s over %d traces, -spec %s hashes %s",
			builtin.Hash(), len(builtin.Manifest), paperSpec, file.Hash())
	}
	a := mustCompile(t, "-keep-going", "-timeout", "5m", "-max-events", "1000")
	b := mustCompile(t, "-spec", paperSpec, "-keep-going", "-timeout", "5m", "-max-events", "1000")
	if a.Hash() != b.Hash() || a.Hash() == builtin.Hash() || !a.KeepGoing || a.MaxEvents != 1000 {
		t.Errorf("budget flags: built-in %s, file %s, plain %s", a.Hash(), b.Hash(), builtin.Hash())
	}
	if c := mustCompile(t, "-workers", "3"); c.Workers != 3 || c.Hash() != builtin.Hash() {
		t.Errorf("-workers 3: workers %d, hash %s; want 3 and the unchanged hash", c.Workers, c.Hash())
	}
}

// TestSchemeSelectionIsASet: the order of -schemes, and spelling out
// the spec's own set, do not change the campaign's identity.
func TestSchemeSelectionIsASet(t *testing.T) {
	tri := writeSpec(t, triSpec)
	for _, pair := range [][2][]string{
		{{"-schemes", "packet,mfact"}, {"-schemes", "mfact,packet"}},
		{{}, {"-schemes", "mfact,packet,flow,packetflow"}},
		{{}, {"-schemes", "packetflow,flow,packet,mfact"}},
		{{"-spec", tri}, {"-spec", tri, "-schemes", "flow,mfact,packet,packetflow"}},
	} {
		a, b := mustCompile(t, pair[0]...), mustCompile(t, pair[1]...)
		if a.Hash() != b.Hash() {
			t.Errorf("%v hashes %s but %v hashes %s", pair[0], a.Hash(), pair[1], b.Hash())
		}
	}
}
