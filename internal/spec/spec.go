package spec

// Package spec lifts campaign scenarios out of code: a YAML (or JSON)
// document names the apps, classes, rank counts, machines, seeds,
// iteration counts, and platform-noise amplitudes to sweep, and
// Compile turns it deterministically into the []workload.Params
// manifest plus the campaign settings that cmd/tradeoff, tracegen and
// chaos previously hard-coded. The committed
// specs/paper-235.yaml compiles bit-identically to workload.Suite()
// (TestPaper235SpecMatchesSuite), so the study manifest is now data.
//
// Schema (every list also accepts a single scalar):
//
//	name: paper-235              # label; not part of the spec hash
//	schemes: [mfact, packetflow] # default: every registered scheme
//	workers: 4                   # default 0 = all cores; not part of the spec hash
//	keep_going: true
//	timeout: 90s                 # per-trace wall budget
//	max_events: 0                # per-trace event budget
//	triage:                      # optional tiered-campaign policy
//	  threshold: 0.35
//	  max_escalations: 0
//	  max_wall: 10m
//	  calibration: 0
//	  cv_runs: 0
//	  max_vars: 0
//	  seed: 0
//	defaults:                    # merged field-wise into every group
//	  machines: rotate
//	  seeds: derived
//	  iters: auto
//	groups:
//	  - apps: [CG, MG]
//	    classes: [A, B]
//	    ranks: [64, 256]
//	    repeat: 2                # default 1
//	    machines: rotate         # or an explicit list
//	    ranks_per_node: [0]      # default [0] = machine default
//	    seeds: derived           # or an explicit list
//	    iters: auto              # or an explicit list (0 = app default)
//	    noise:                   # default: the single zero-noise point
//	      link_jitter: [0, 0.1]
//	      node_hetero: [0]
//	      os_noise: [0]
//	      seeds: [0]
//	    exclude:                 # drop matching combinations
//	      - app: FT
//	        ranks: 256
//
// The sweep order inside a group is fixed and documented here because
// it is part of the deterministic-compilation contract: repeat, then
// apps, classes, ranks, machines, ranks_per_node, seeds, iters, and
// innermost the noise axes (link_jitter, node_hetero, os_noise,
// seeds). `machines: rotate`, `seeds: derived`, and `iters: auto`
// defer to the suite policies (workload.SuiteMachine / SuiteSeed /
// SuiteIters) keyed by the global manifest index, which threads across
// groups; excluded combinations do not consume an index.

import (
	"fmt"
	"os"
	"time"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/scheme"
	"hpctradeoff/internal/triage"
	"hpctradeoff/internal/workload"
)

// Spec is a parsed, validated campaign spec, ready to Compile.
type Spec struct {
	Name      string
	Schemes   []string
	Workers   int
	KeepGoing bool
	Timeout   time.Duration
	MaxEvents uint64
	Triage    *triage.Policy
	Groups    []Group
}

// Group is one sweep block: the cross-product of its axes, minus
// exclusions.
type Group struct {
	Apps         []string
	Classes      []string
	Ranks        []int
	Machines     []string // nil when Rotate
	Rotate       bool
	RanksPerNode []int
	Seeds        []int64 // nil when Derived
	Derived      bool
	Iters        []int // nil when Auto
	Auto         bool
	Repeat       int
	Noise        NoiseSweep
	Exclude      []Match
}

// NoiseSweep is the platform-variability axis of a group. Empty lists
// mean the single zero point on that axis.
type NoiseSweep struct {
	LinkJitter []float64
	NodeHetero []float64
	OSNoise    []float64
	Seeds      []int64
}

// Match selects combinations to exclude; empty/zero fields match
// anything, set fields must all match.
type Match struct {
	App     string
	Class   string
	Ranks   int
	Machine string
}

func (m Match) hits(p workload.Params) bool {
	return (m.App == "" || m.App == p.App) &&
		(m.Class == "" || m.Class == p.Class) &&
		(m.Ranks == 0 || m.Ranks == p.Ranks) &&
		(m.Machine == "" || m.Machine == p.Machine)
}

// Load reads and parses the campaign spec at path.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Parse parses and validates a campaign spec document (the YAML subset
// of yaml.go, or JSON when the document starts with '{'). Every
// failure is a *Error naming the offending field.
func Parse(data []byte) (*Spec, error) {
	doc, err := parseDocument(data)
	if err != nil {
		return nil, err
	}
	d := decoder{}
	s := &Spec{}
	d.keys(doc, "", "name", "schemes", "workers", "keep_going",
		"timeout", "max_events", "triage", "defaults", "groups")
	s.Name = d.str(doc, "name", "")
	s.Schemes = d.strList(doc, "schemes", "schemes")
	s.Workers = d.num(doc, "workers", "workers", 0, 1<<16)
	s.KeepGoing = d.boolean(doc, "keep_going", "keep_going")
	s.Timeout = d.duration(doc, "timeout", "timeout")
	s.MaxEvents = uint64(d.num64(doc, "max_events", "max_events", 0, 1<<62))
	s.Triage = d.triage(doc)

	defaults := d.group(doc["defaults"], "defaults", Group{}, true)
	groups, ok := doc["groups"]
	if !ok {
		d.fail("groups", "required")
	} else {
		for i, g := range listOf(groups) {
			field := fmt.Sprintf("groups[%d]", i)
			s.Groups = append(s.Groups, d.group(g, field, defaults, false))
		}
		if len(s.Groups) == 0 {
			d.fail("groups", "must list at least one group")
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// validate cross-checks names against the live registries.
func (s *Spec) validate() error {
	schemes := map[string]bool{}
	for _, n := range scheme.Names() {
		schemes[n] = true
	}
	for _, n := range s.Schemes {
		if !schemes[n] {
			return errf(0, "schemes", "unknown scheme %q (have %v)", n, scheme.Names())
		}
	}
	apps := map[string]bool{}
	for _, n := range workload.Apps() {
		apps[n] = true
	}
	machines := map[string]bool{"fattree": true}
	for _, n := range machine.Names() {
		machines[n] = true
	}
	for gi := range s.Groups {
		g := &s.Groups[gi]
		field := fmt.Sprintf("groups[%d]", gi)
		if len(g.Apps) == 0 {
			return errf(0, field+".apps", "required")
		}
		if len(g.Classes) == 0 {
			return errf(0, field+".classes", "required")
		}
		if len(g.Ranks) == 0 {
			return errf(0, field+".ranks", "required")
		}
		for _, a := range g.Apps {
			if !apps[a] {
				return errf(0, field+".apps", "unknown app %q", a)
			}
		}
		for _, c := range g.Classes {
			switch c {
			case "S", "A", "B", "C":
			default:
				return errf(0, field+".classes", "unknown class %q (want S, A, B, or C)", c)
			}
		}
		for _, r := range g.Ranks {
			if r < 1 {
				return errf(0, field+".ranks", "rank count %d < 1", r)
			}
		}
		if !g.Rotate {
			if len(g.Machines) == 0 {
				return errf(0, field+".machines", "required (a machine list or \"rotate\")")
			}
			for _, m := range g.Machines {
				if !machines[m] {
					return errf(0, field+".machines", "unknown machine %q", m)
				}
			}
		}
		for _, r := range g.RanksPerNode {
			if r < 0 {
				return errf(0, field+".ranks_per_node", "negative ranks per node %d", r)
			}
		}
		for _, ex := range g.Exclude {
			if ex == (Match{}) {
				return errf(0, field+".exclude", "an empty match would exclude every combination")
			}
			if ex.Machine != "" && !machines[ex.Machine] {
				return errf(0, field+".exclude", "unknown machine %q", ex.Machine)
			}
			if ex.App != "" && !apps[ex.App] {
				return errf(0, field+".exclude", "unknown app %q", ex.App)
			}
		}
		for axis, vals := range map[string][]float64{
			"link_jitter": g.Noise.LinkJitter,
			"node_hetero": g.Noise.NodeHetero,
			"os_noise":    g.Noise.OSNoise,
		} {
			for _, v := range vals {
				if v < 0 || v != v || v > 1e6 {
					return errf(0, field+".noise."+axis, "amplitude %v out of range [0, 1e6]", v)
				}
			}
		}
	}
	return nil
}

// decoder accumulates the first typed error while walking the generic
// document, so call sites stay linear.
type decoder struct {
	err *Error
}

func (d *decoder) fail(field, format string, args ...any) {
	if d.err == nil {
		d.err = errf(0, field, format, args...)
	}
}

// keys rejects unknown keys — typos in a spec must not silently
// no-op.
func (d *decoder) keys(m map[string]any, prefix string, allowed ...string) {
	ok := map[string]bool{}
	for _, k := range allowed {
		ok[k] = true
	}
	for k := range m {
		if !ok[k] {
			name := k
			if prefix != "" {
				name = prefix + "." + k
			}
			d.fail(name, "unknown key (allowed: %v)", allowed)
			return
		}
	}
}

func (d *decoder) str(m map[string]any, key, field string) string {
	v, ok := m[key]
	if !ok || v == nil {
		return ""
	}
	s, ok := v.(string)
	if !ok {
		d.fail(field, "want a string, got %T", v)
		return ""
	}
	return s
}

func (d *decoder) boolean(m map[string]any, key, field string) bool {
	v, ok := m[key]
	if !ok || v == nil {
		return false
	}
	b, ok := v.(bool)
	if !ok {
		d.fail(field, "want true or false, got %v", v)
		return false
	}
	return b
}

func (d *decoder) num64(m map[string]any, key, field string, lo, hi int64) int64 {
	v, ok := m[key]
	if !ok || v == nil {
		return 0
	}
	i, ok := v.(int64)
	if !ok {
		d.fail(field, "want an integer, got %v", v)
		return 0
	}
	if i < lo || i > hi {
		d.fail(field, "%d out of range [%d, %d]", i, lo, hi)
		return 0
	}
	return i
}

func (d *decoder) num(m map[string]any, key, field string, lo, hi int64) int {
	return int(d.num64(m, key, field, lo, hi))
}

func (d *decoder) duration(m map[string]any, key, field string) time.Duration {
	v, ok := m[key]
	if !ok || v == nil {
		return 0
	}
	s, ok := v.(string)
	if !ok {
		d.fail(field, "want a duration string like \"90s\", got %v", v)
		return 0
	}
	dur, err := time.ParseDuration(s)
	if err != nil || dur < 0 {
		d.fail(field, "bad duration %q", s)
		return 0
	}
	return dur
}

func (d *decoder) float(v any, field string) float64 {
	switch t := v.(type) {
	case float64:
		return t
	case int64:
		return float64(t)
	}
	d.fail(field, "want a number, got %v", v)
	return 0
}

// listOf promotes a scalar to a one-element list, so `classes: B`
// and `classes: [B]` read the same.
func listOf(v any) []any {
	if l, ok := v.([]any); ok {
		return l
	}
	if v == nil {
		return nil
	}
	return []any{v}
}

func (d *decoder) strList(m map[string]any, key, field string) []string {
	v, ok := m[key]
	if !ok || v == nil {
		return nil
	}
	var out []string
	for _, e := range listOf(v) {
		s, ok := e.(string)
		if !ok {
			d.fail(field, "want strings, got %v", e)
			return nil
		}
		out = append(out, s)
	}
	return out
}

func (d *decoder) intList(v any, field string, lo, hi int64) []int {
	var out []int
	for _, e := range listOf(v) {
		i, ok := e.(int64)
		if !ok {
			d.fail(field, "want integers, got %v", e)
			return nil
		}
		if i < lo || i > hi {
			d.fail(field, "%d out of range [%d, %d]", i, lo, hi)
			return nil
		}
		out = append(out, int(i))
	}
	return out
}

func (d *decoder) int64List(v any, field string) []int64 {
	var out []int64
	for _, e := range listOf(v) {
		i, ok := e.(int64)
		if !ok {
			d.fail(field, "want integers, got %v", e)
			return nil
		}
		out = append(out, i)
	}
	return out
}

func (d *decoder) floatList(v any, field string) []float64 {
	var out []float64
	for _, e := range listOf(v) {
		out = append(out, d.float(e, field))
	}
	return out
}

// group decodes one group block over base (the merged defaults).
// isDefaults relaxes the required-axis checks (done later, per merged
// group, in validate).
func (d *decoder) group(v any, field string, base Group, isDefaults bool) Group {
	g := base
	if v == nil {
		if !isDefaults {
			d.fail(field, "want a mapping")
		}
		return g
	}
	m, ok := v.(map[string]any)
	if !ok {
		d.fail(field, "want a mapping, got %T", v)
		return g
	}
	d.keys(m, field, "apps", "classes", "ranks", "machines", "ranks_per_node",
		"seeds", "iters", "repeat", "noise", "exclude")
	if _, ok := m["apps"]; ok {
		g.Apps = d.strList(m, "apps", field+".apps")
	}
	if _, ok := m["classes"]; ok {
		g.Classes = d.strList(m, "classes", field+".classes")
	}
	if w, ok := m["ranks"]; ok {
		g.Ranks = d.intList(w, field+".ranks", 1, 1<<24)
	}
	if w, ok := m["machines"]; ok {
		if s, isStr := w.(string); isStr && s == "rotate" {
			g.Rotate, g.Machines = true, nil
		} else {
			g.Rotate = false
			g.Machines = d.strList(m, "machines", field+".machines")
		}
	}
	if w, ok := m["ranks_per_node"]; ok {
		g.RanksPerNode = d.intList(w, field+".ranks_per_node", 0, 1<<20)
	}
	if w, ok := m["seeds"]; ok {
		if s, isStr := w.(string); isStr && s == "derived" {
			g.Derived, g.Seeds = true, nil
		} else {
			g.Derived = false
			g.Seeds = d.int64List(w, field+".seeds")
		}
	}
	if w, ok := m["iters"]; ok {
		if s, isStr := w.(string); isStr && s == "auto" {
			g.Auto, g.Iters = true, nil
		} else {
			g.Auto = false
			g.Iters = d.intList(w, field+".iters", 0, 1<<24)
		}
	}
	if _, ok := m["repeat"]; ok {
		g.Repeat = d.num(m, "repeat", field+".repeat", 1, 1<<16)
	}
	if w, ok := m["noise"]; ok {
		nm, ok := w.(map[string]any)
		if !ok {
			d.fail(field+".noise", "want a mapping, got %T", w)
			return g
		}
		d.keys(nm, field+".noise", "link_jitter", "node_hetero", "os_noise", "seeds")
		if x, ok := nm["link_jitter"]; ok {
			g.Noise.LinkJitter = d.floatList(x, field+".noise.link_jitter")
		}
		if x, ok := nm["node_hetero"]; ok {
			g.Noise.NodeHetero = d.floatList(x, field+".noise.node_hetero")
		}
		if x, ok := nm["os_noise"]; ok {
			g.Noise.OSNoise = d.floatList(x, field+".noise.os_noise")
		}
		if x, ok := nm["seeds"]; ok {
			g.Noise.Seeds = d.int64List(x, field+".noise.seeds")
		}
	}
	if w, ok := m["exclude"]; ok {
		for i, e := range listOf(w) {
			ef := fmt.Sprintf("%s.exclude[%d]", field, i)
			em, ok := e.(map[string]any)
			if !ok {
				d.fail(ef, "want a mapping, got %T", e)
				return g
			}
			d.keys(em, ef, "app", "class", "ranks", "machine")
			g.Exclude = append(g.Exclude, Match{
				App:     d.str(em, "app", ef+".app"),
				Class:   d.str(em, "class", ef+".class"),
				Ranks:   d.num(em, "ranks", ef+".ranks", 0, 1<<24),
				Machine: d.str(em, "machine", ef+".machine"),
			})
		}
	}
	return g
}

func (d *decoder) triage(doc map[string]any) *triage.Policy {
	v, ok := doc["triage"]
	if !ok || v == nil {
		return nil
	}
	m, ok := v.(map[string]any)
	if !ok {
		d.fail("triage", "want a mapping, got %T", v)
		return nil
	}
	d.keys(m, "triage", "threshold", "max_escalations", "max_wall",
		"calibration", "cv_runs", "max_vars", "seed")
	p := &triage.Policy{
		MaxEscalations: d.num(m, "max_escalations", "triage.max_escalations", 0, 1<<31),
		MaxWall:        d.duration(m, "max_wall", "triage.max_wall"),
		Calibration:    d.num(m, "calibration", "triage.calibration", 0, 1<<31),
		CVRuns:         d.num(m, "cv_runs", "triage.cv_runs", 0, 1<<20),
		MaxVars:        d.num(m, "max_vars", "triage.max_vars", 0, 1<<20),
		Seed:           d.num64(m, "seed", "triage.seed", -1<<62, 1<<62),
	}
	if t, ok := m["threshold"]; ok {
		p.Threshold = d.float(t, "triage.threshold")
		if p.Threshold < 0 || p.Threshold > 1 || p.Threshold != p.Threshold {
			d.fail("triage.threshold", "%v out of range [0, 1]", p.Threshold)
		}
	}
	return p
}
