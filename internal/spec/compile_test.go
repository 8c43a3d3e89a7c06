package spec

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hpctradeoff/internal/workload"
)

const sample = `
name: sample
schemes: [mfact, packetflow]
workers: 2
keep_going: true
timeout: 90s
defaults:
  machines: rotate
  seeds: derived
  iters: auto
groups:
  - apps: [CG, MG]
    classes: [A, B]
    ranks: [64, 128]
    repeat: 2
  - apps: EP
    classes: S
    ranks: 64
    machines: [edison]
    seeds: [7, 8]
    noise:
      link_jitter: [0, 0.1]
      seeds: 1
    exclude:
      - app: EP
        ranks: 128
`

func mustCompile(t *testing.T, doc string) *Compiled {
	t.Helper()
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	c, err := Compile(s)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return c
}

// TestCompileDeterministic holds the core contract: compiling the same
// document twice yields identical manifests, configs, and hashes.
func TestCompileDeterministic(t *testing.T) {
	a, b := mustCompile(t, sample), mustCompile(t, sample)
	if !reflect.DeepEqual(a.Manifest, b.Manifest) {
		t.Error("two compilations of one document disagree on the manifest")
	}
	if a.Hash() != b.Hash() {
		t.Errorf("two compilations of one document disagree on the hash: %s vs %s", a.Hash(), b.Hash())
	}
	if a.Hash() == "" {
		t.Error("empty spec hash")
	}
}

// TestCompileSample spot-checks the sweep semantics on a small spec.
func TestCompileSample(t *testing.T) {
	c := mustCompile(t, sample)
	// Group 1: 2 repeats × 2 apps × 2 classes × 2 rank counts = 16.
	// Group 2: 1 app × 1 class × 1 ranks × 2 seeds × 2 jitters = 4.
	if got, want := len(c.Manifest), 20; got != want {
		t.Fatalf("manifest size = %d, want %d", got, want)
	}
	// The rotate/derived policies must match Suite's add() exactly.
	p0 := c.Manifest[0]
	if p0.Machine != workload.SuiteMachine(0, 64) {
		t.Errorf("entry 0 machine = %s, want the index-0 rotation %s", p0.Machine, workload.SuiteMachine(0, 64))
	}
	if p0.Seed != workload.SuiteSeed("CG", "A", 64, p0.Machine, 0) {
		t.Errorf("entry 0 seed = %d, want the derived seed", p0.Seed)
	}
	// Group 2's explicit axes land verbatim; noise sweeps innermost.
	g2 := c.Manifest[16:]
	for i, p := range g2 {
		if p.App != "EP" || p.Class != "S" || p.Machine != "edison" {
			t.Fatalf("group-2 entry %d = %+v", i, p)
		}
	}
	if g2[0].Seed != 7 || g2[1].Seed != 7 || g2[2].Seed != 8 {
		t.Errorf("seeds sweep out of order: %d, %d, %d", g2[0].Seed, g2[1].Seed, g2[2].Seed)
	}
	if g2[0].Noise.LinkJitter != 0 || g2[1].Noise.LinkJitter != 0.1 {
		t.Errorf("noise sweeps out of order: %v then %v", g2[0].Noise, g2[1].Noise)
	}
	if g2[1].Noise.Seed != 1 {
		t.Errorf("noise seed not applied: %+v", g2[1].Noise)
	}
}

// TestHashSensitivity: the hash must move with anything that changes
// the computation and stay put for pure relabeling.
func TestHashSensitivity(t *testing.T) {
	base := mustCompile(t, sample)
	renamed := mustCompile(t, "name: other\n"+sample[len("\nname: sample\n"):])
	if base.Hash() != renamed.Hash() {
		t.Error("renaming the spec changed its hash; journals would be orphaned by a relabel")
	}
	reworkered := mustCompile(t, strings.Replace(sample, "workers: 2", "workers: 1", 1))
	if reworkered.Workers != 1 || base.Hash() != reworkered.Hash() {
		t.Error("changing the worker count changed the hash; a campaign is bit-identical at any worker count")
	}
	reordered := mustCompile(t, `
groups:
  - apps: [MG, CG]
    classes: B
    ranks: 64
    machines: [edison]
    seeds: [1]
`)
	reordered2 := mustCompile(t, `
groups:
  - apps: [CG, MG]
    classes: B
    ranks: 64
    machines: [edison]
    seeds: [1]
`)
	if reordered.Hash() == reordered2.Hash() {
		t.Error("reordering the app sweep kept the hash; resume would silently remap indices")
	}
}

// TestPaper235SpecMatchesSuite is the differential test the refactor
// hangs on: the committed spec file reproduces workload.Suite() bit
// for bit — every field of all 235 Params, including machine
// rotation, derived seeds, and trimmed iteration counts.
func TestPaper235SpecMatchesSuite(t *testing.T) {
	s, err := Load(filepath.Join("..", "..", "specs", "paper-235.yaml"))
	if err != nil {
		t.Fatalf("loading the committed spec: %v", err)
	}
	c, err := Compile(s)
	if err != nil {
		t.Fatalf("compiling the committed spec: %v", err)
	}
	suite := workload.Suite()
	if len(c.Manifest) != len(suite) {
		t.Fatalf("spec compiles to %d traces, Suite() has %d", len(c.Manifest), len(suite))
	}
	for i := range suite {
		if c.Manifest[i] != suite[i] {
			t.Fatalf("trace %d diverges:\n  spec : %+v\n  suite: %+v", i, c.Manifest[i], suite[i])
		}
	}
}

// TestCrossProductCap: an over-large sweep must fail with a typed
// error, before materializing anything.
func TestCrossProductCap(t *testing.T) {
	doc := `
groups:
  - apps: [CG, MG, FT, IS, LU, BT, EP, DT]
    classes: [S, A, B, C]
    ranks: [16, 32, 64, 128]
    machines: [cielito, hopper, edison]
    seeds: [1, 2, 3, 4, 5, 6, 7, 8]
    repeat: 1000
`
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if _, err := Compile(s); err == nil {
		t.Fatal("a 3M-entry cross-product compiled without error")
	} else if _, ok := err.(*Error); !ok {
		t.Fatalf("cap violation surfaced as %T, want *Error: %v", err, err)
	}
}

// TestParseErrors: representative invalid documents fail with typed
// errors naming the field.
func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown app":     "groups:\n  - apps: NoSuchApp\n    classes: B\n    ranks: 64\n    machines: [edison]\n    seeds: [1]\n",
		"unknown class":   "groups:\n  - apps: CG\n    classes: Z\n    ranks: 64\n    machines: [edison]\n    seeds: [1]\n",
		"unknown machine": "groups:\n  - apps: CG\n    classes: B\n    ranks: 64\n    machines: [vulcan]\n    seeds: [1]\n",
		"unknown scheme":  "schemes: [psychic]\ngroups:\n  - apps: CG\n    classes: B\n    ranks: 64\n    machines: [edison]\n    seeds: [1]\n",
		"unknown key":     "grupos: []\n",
		"retired key":     "max_retries: 1\ngroups:\n  - apps: CG\n    classes: B\n    ranks: 64\n    machines: [edison]\n    seeds: [1]\n",
		"missing groups":  "name: empty\n",
		"empty exclude":   "groups:\n  - apps: CG\n    classes: B\n    ranks: 64\n    machines: [edison]\n    seeds: [1]\n    exclude:\n      - {}\n",
		"bad sweep type":  "groups:\n  - apps: CG\n    classes: B\n    ranks: [sixty-four]\n    machines: [edison]\n    seeds: [1]\n",
		"tab indent":      "groups:\n\t- apps: CG\n",
		"negative noise":  "groups:\n  - apps: CG\n    classes: B\n    ranks: 64\n    machines: [edison]\n    seeds: [1]\n    noise:\n      link_jitter: [-0.5]\n",
	}
	for name, doc := range cases {
		s, err := Parse([]byte(doc))
		if err == nil {
			if _, err = Compile(s); err == nil {
				t.Errorf("%s: accepted", name)
				continue
			}
		}
		if _, ok := err.(*Error); !ok {
			t.Errorf("%s: error is %T, want *Error: %v", name, err, err)
		}
	}
	// Campaigns no longer retry failed traces, so a spec asking for
	// retries must fail loudly, naming the key, not silently run once.
	_, err := Parse([]byte(cases["retired key"]))
	if e, ok := err.(*Error); !ok || e.Field != "max_retries" {
		t.Errorf("retired key: error %v does not name max_retries", err)
	}
	// "empty exclude" uses a flow mapping, which the subset rejects —
	// make sure the block form is also covered.
	doc := "groups:\n  - apps: CG\n    classes: B\n    ranks: 64\n    machines: [edison]\n    seeds: [1]\n    exclude:\n      - app: CG\n"
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("exclude block: %v", err)
	}
	c, err := Compile(s)
	if err != nil {
		t.Fatalf("exclude block compile: %v", err)
	}
	if len(c.Manifest) != 0 {
		t.Errorf("excluding the only app left %d entries", len(c.Manifest))
	}
}

// TestJSONEquivalence: the same spec as JSON compiles to the same
// hash as its YAML form.
func TestJSONEquivalence(t *testing.T) {
	yamlDoc := `
groups:
  - apps: [CG]
    classes: [B]
    ranks: [64]
    machines: [edison]
    seeds: [5]
    noise:
      os_noise: [0, 2.5]
`
	jsonDoc := `{"groups": [{"apps": ["CG"], "classes": ["B"], "ranks": [64],
	  "machines": ["edison"], "seeds": [5], "noise": {"os_noise": [0, 2.5]}}]}`
	a, b := mustCompile(t, yamlDoc), mustCompile(t, jsonDoc)
	if a.Hash() != b.Hash() {
		t.Errorf("YAML and JSON forms of one spec hash differently:\n%v\n%v", a.Manifest, b.Manifest)
	}
}

// TestLoadMissing keeps Load's error shape stable for the CLIs.
func TestLoadMissing(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.yaml")); err == nil {
		t.Error("loading a missing file succeeded")
	}
}

// TestVariabilitySpecCompiles keeps the committed variability study
// spec compiling, with a zero-noise baseline present and at least
// three distinct non-zero amplitudes per swept axis.
func TestVariabilitySpecCompiles(t *testing.T) {
	path := filepath.Join("..", "..", "specs", "variability.yaml")
	if _, err := os.Stat(path); err != nil {
		t.Skipf("specs/variability.yaml not present: %v", err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatalf("loading: %v", err)
	}
	c, err := Compile(s)
	if err != nil {
		t.Fatalf("compiling: %v", err)
	}
	zero := 0
	amp := map[string]map[float64]bool{"lj": {}, "nh": {}, "os": {}}
	for _, p := range c.Manifest {
		if p.Noise.IsZero() {
			zero++
		}
		if p.Noise.LinkJitter > 0 {
			amp["lj"][p.Noise.LinkJitter] = true
		}
		if p.Noise.NodeHetero > 0 {
			amp["nh"][p.Noise.NodeHetero] = true
		}
		if p.Noise.OSNoise > 0 {
			amp["os"][p.Noise.OSNoise] = true
		}
	}
	if zero == 0 {
		t.Error("variability spec has no zero-noise baseline point")
	}
	for axis, set := range amp {
		if len(set) < 3 {
			t.Errorf("axis %s sweeps %d non-zero amplitudes, want ≥ 3", axis, len(set))
		}
	}
	seen := map[workload.Params]bool{}
	for _, p := range c.Manifest {
		if seen[p] {
			t.Fatalf("duplicate manifest entry %+v (breaks resume maps)", p)
		}
		seen[p] = true
	}
}
