package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"time"

	"hpctradeoff/internal/core"
	"hpctradeoff/internal/scheme"
	"hpctradeoff/internal/spec"
)

// schemeNames is the study's scheme set, in the order the specs list it.
var schemeNames = []string{scheme.MFACT, scheme.Packet, scheme.Flow, scheme.PacketFlow}

// harness owns the built binaries and the scratch directory of one
// benchmark invocation.
type harness struct {
	bin    string // directory holding tradeoff and tracegen
	work   string // scratch, removed by close
	buildS float64
}

// newHarness builds cmd/tradeoff and cmd/tracegen from the module at
// root into buildDir/bin and creates a scratch directory under
// buildDir. The go command's own cache is left where the environment
// points it (benchmark/run.sh points it inside the checkout).
func newHarness(root, buildDir string) (*harness, error) {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil, fmt.Errorf("benchmark: %s is not the module root: %w", root, err)
	}
	buildDir, err := filepath.Abs(buildDir)
	if err != nil {
		return nil, err
	}
	h := &harness{bin: filepath.Join(buildDir, "bin")}
	if err := os.MkdirAll(h.bin, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	build := exec.Command("go", "build", "-o", h.bin+string(filepath.Separator), "./cmd/tradeoff", "./cmd/tracegen")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("benchmark: building the program: %w\n%s", err, out)
	}
	h.buildS = time.Since(start).Seconds()
	if h.work, err = os.MkdirTemp(buildDir, "run-"); err != nil {
		return nil, err
	}
	return h, nil
}

func (h *harness) close() { os.RemoveAll(h.work) }

// prepared is one workload, set up and ready for measured runs.
type prepared struct {
	w        workload
	dir      string
	specPath string
	// warmDir is the pre-populated cache of a warm workload ("" = every
	// run starts on an empty cache directory of its own).
	warmDir string
	setupS  []float64
	spinMS  []float64
	runs    int
}

// setupReps is how many times set-up is repeated so that setup_s is a
// median, not one sample.
const setupReps = 3

// settle is the pause that ends every set-up, so that the first
// measured campaign does not start into the page-cache writeback of the
// build and the cache fill that came just before it. It also keeps
// setup_s away from zero on the workloads that have nothing to set up.
const settle = 250 * time.Millisecond

// prepare takes the before-workload calibration spins, then sets the
// workload up reps times and keeps the last. Set-up is everything
// between "binaries built" and "the first measured run may start":
// scratch directories, emitting the spec from the seed and checking
// that it compiles to the expected manifest, for a warm workload
// filling the trace cache with `tracegen -spec … -warm`, and the settle
// pause. A -smoke workload skips spins and pause: it checks paths, not
// times.
func (h *harness) prepare(w workload, seed int64, reps int) (*prepared, error) {
	p := &prepared{w: w}
	for rep := 0; rep < setupReps && !w.tiny; rep++ {
		p.spinMS = append(p.spinMS, spin())
	}
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		dir, err := os.MkdirTemp(h.work, w.name+"-")
		if err != nil {
			return nil, err
		}
		p.dir, p.specPath = dir, filepath.Join(dir, w.name+".yaml")
		if err := os.WriteFile(p.specPath, []byte(w.spec(seed)), 0o644); err != nil {
			return nil, err
		}
		s, err := spec.Load(p.specPath)
		if err != nil {
			return nil, err
		}
		c, err := spec.Compile(s)
		if err != nil {
			return nil, err
		}
		if len(c.Manifest) != w.traces() {
			return nil, fmt.Errorf("benchmark: %s compiled to %d traces, want %d", w.name, len(c.Manifest), w.traces())
		}
		if w.warm {
			p.warmDir = filepath.Join(dir, "warm-cache")
			warm := exec.Command(filepath.Join(h.bin, "tracegen"), "-spec", p.specPath, "-warm", p.warmDir)
			if out, err := warm.CombinedOutput(); err != nil {
				return nil, fmt.Errorf("benchmark: warming the cache: %w\n%s", err, out)
			}
		}
		if !w.tiny {
			time.Sleep(settle)
		}
		p.setupS = append(p.setupS, time.Since(start).Seconds())
	}
	return p, nil
}

// runDir makes a fresh directory for one campaign run or walk and
// returns it with the cache directory the run must use.
func (p *prepared) runDir() (dir, cache string, err error) {
	p.runs++
	dir = filepath.Join(p.dir, "run-"+strconv.Itoa(p.runs))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	if p.warmDir != "" {
		return dir, p.warmDir, nil
	}
	return dir, filepath.Join(dir, "cache"), nil
}

// childRun is one `tradeoff` campaign executed as a child process.
type childRun struct {
	wallS, cpuS, rssMB float64
	hits, misses       int
	// fullShare is the tiered campaign's full-fidelity share from the
	// saved triage report (1 for a non-tiered campaign).
	fullShare float64
	check     *checked
}

var cacheLine = regexp.MustCompile(`trace cache: (\d+) hits, (\d+) misses`)

// campaign runs the workload's campaign the way a user does: a fresh
// `tradeoff -spec … -q -checkpoint … -trace-cache … -save … -figdir …`
// process, timed from exec to exit. workers > 0 overrides the spec's
// `workers: 1`.
func (h *harness) campaign(p *prepared, workers int) (*childRun, error) {
	dir, cache, err := p.runDir()
	if err != nil {
		return nil, err
	}
	save := filepath.Join(dir, "results.json")
	args := []string{"-spec", p.specPath, "-q",
		"-checkpoint", filepath.Join(dir, "ck.jsonl"), "-trace-cache", cache,
		"-save", save, "-figdir", filepath.Join(dir, "figs")}
	if workers > 0 {
		args = append(args, "-workers", strconv.Itoa(workers))
	}
	cmd := exec.Command(filepath.Join(h.bin, "tradeoff"), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err = cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("benchmark: tradeoff %v: %w\n%s", args, err, stderr.Bytes())
	}
	run := &childRun{
		wallS:     wall.Seconds(),
		cpuS:      (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds(),
		rssMB:     peakRSSMB(cmd.ProcessState),
		fullShare: 1,
	}
	m := cacheLine.FindSubmatch(stdout.Bytes())
	if m == nil {
		return nil, fmt.Errorf("benchmark: tradeoff printed no trace-cache summary:\n%s", stdout.Bytes())
	}
	run.hits, _ = strconv.Atoi(string(m[1]))
	run.misses, _ = strconv.Atoi(string(m[2]))
	if p.w.warm && (run.misses != 0 || run.hits != p.w.traces()) {
		return nil, fmt.Errorf("benchmark: %s must run on %d cache hits and no miss, got %d hits, %d misses",
			p.w.name, p.w.traces(), run.hits, run.misses)
	}
	rs, err := core.LoadResultsFile(save)
	if err != nil {
		return nil, err
	}
	if run.check, err = check(rs, p.w.traces()); err != nil {
		return nil, fmt.Errorf("benchmark: %s: %w", p.w.name, err)
	}
	if p.w.triage {
		rep, err := core.LoadTriageReport(save + ".triage.json")
		if err != nil {
			return nil, err
		}
		run.fullShare = rep.EscalationRate
	}
	return run, nil
}

// checked is the host-independent content of one campaign's results.
type checked struct {
	// lines holds one canonical line per trace, sorted by campaign key:
	// the key, Measured, and every scheme's (name, Total, Comm, Events,
	// OK, ErrKind). Two campaigns computed the same thing exactly when
	// their lines are equal.
	lines []string
	// errPct is, per scheme, mean |T_pred/T_measured − 1| × 100 over
	// the scheme's OK outcomes.
	errPct map[string]float64
	// unsupported counts capability-gap outcomes per scheme.
	unsupported map[string]int
	// attempted counts the traces plus every scheme outcome that is not
	// a capability gap; failed counts missing traces plus outcomes that
	// failed for any other reason.
	attempted, failed int
}

func (c *checked) digest() string {
	h := sha256.New()
	for _, l := range c.lines {
		fmt.Fprintln(h, l)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// check validates a result set against the expected manifest size and
// reduces it to its canonical lines, accuracy and failure counts.
func check(rs []*core.TraceResult, want int) (*checked, error) {
	c := &checked{errPct: map[string]float64{}, unsupported: map[string]int{}, attempted: want}
	ok := map[string]int{}
	for _, r := range rs {
		if r == nil {
			continue
		}
		line := fmt.Sprintf("%s measured=%d", core.CampaignKey(r.Params), r.Measured)
		names := make([]string, 0, len(r.Schemes))
		for name := range r.Schemes {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			o := r.Schemes[name]
			line += fmt.Sprintf(" %s=(%d,%d,%d,%t,%s)", name, o.Total, o.Comm, o.Events, o.OK, o.ErrKind)
			switch {
			case o.OK:
				c.attempted++
				if e, defined := r.ErrVsMeasured(name); defined {
					c.errPct[name] += 100 * e
					ok[name]++
				}
			case o.ErrKind == string(core.KindUnsupported):
				c.unsupported[name]++
			default:
				c.attempted++
				c.failed++
			}
		}
		c.lines = append(c.lines, line)
	}
	sort.Strings(c.lines)
	if len(c.lines) != want {
		return nil, fmt.Errorf("results hold %d traces, want %d", len(c.lines), want)
	}
	for _, name := range schemeNames {
		if ok[name] == 0 {
			return nil, fmt.Errorf("scheme %s predicted no trace", name)
		}
		c.errPct[name] /= float64(ok[name])
	}
	return c, nil
}

// sameAs reports the first trace on which two result sets differ.
func (c *checked) sameAs(o *checked, what string) error {
	for i := range c.lines {
		if i >= len(o.lines) || c.lines[i] != o.lines[i] {
			other := "(missing)"
			if i < len(o.lines) {
				other = o.lines[i]
			}
			return fmt.Errorf("benchmark: correctness gate: %s differ:\n  %s\n  %s", what, c.lines[i], other)
		}
	}
	if len(o.lines) != len(c.lines) {
		return fmt.Errorf("benchmark: correctness gate: %s differ: %d vs %d traces", what, len(c.lines), len(o.lines))
	}
	return nil
}
