// Command chaos soak-tests the campaign pipeline under deterministic,
// seeded schedules of faults that really happen. For each seed it
// derives a schedule of one to three faults — a scheme that errors,
// blows its event budget or panics on seeded runs, a kill that cuts
// the checkpoint journal inside a record, an operator cancel after the
// k-th trace — runs the campaign under it twice, then resumes from the
// first run's journal with nothing failing, asserting three invariants:
//
//  1. Reproducibility: two runs with the same seed strike the identical
//     faults and produce identical results.
//  2. Durability: no result committed to the checkpoint journal before
//     the (simulated) kill is ever lost or rewritten by the recovery run.
//  3. Isolation: every trace that is not degraded and has all schemes
//     OK is bit-identical to a fault-free run — no exemptions, since a
//     campaign never re-runs a trace under another seed; degraded
//     traces still carry the fault-free model prediction.
//
// Usage:
//
//	chaos -seed 1              # one schedule
//	chaos -seed 1 -runs 20     # soak seeds 1..20 (make chaos-short)
//	chaos -seed 7 -v           # print the schedule and every fault struck
//
// Faults strike on counts (the n-th run of a scheme, the k-th completed
// trace, a seeded byte of the journal), never on the clock, and the
// campaign runs with one worker, so a seed's behavior is identical
// across machines and runs. Scheme faults come from wrapping the
// registered scheme under its own name; nothing is injected into the
// pipeline itself.
//
// Each seed additionally soaks the tiered scheduler's classifier-down
// contract (soakTriage: a calibration split too small to train on) and
// the trace cache's never-trust-damage contract (soakCache: real
// on-disk damage to a trace, a program and a sidecar must regenerate or
// re-lower, never change a result).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"hpctradeoff/internal/core"
	"hpctradeoff/internal/des"
	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/scheme"
	"hpctradeoff/internal/spec"
	"hpctradeoff/internal/trace"
	"hpctradeoff/internal/tracecache"
	"hpctradeoff/internal/triage"
	"hpctradeoff/internal/workload"
)

var verbose bool

func vlogf(format string, args ...any) {
	if verbose {
		fmt.Printf(format+"\n", args...)
	}
}

// suiteApps rotates through the full application set so soaking many
// seeds covers every generator.
var suiteApps = []string{
	"CG", "MG", "FT", "IS", "LU", "BT", "EP", "DT",
	"BigFFT", "CrystalRouter", "AMG", "MiniFE", "LULESH",
	"CNS", "CMC", "Nekbone", "MultiGrid", "FillBoundary",
}

func buildSuite(n int) []workload.Params {
	machines := []string{"cielito", "edison", "hopper"}
	ps := make([]workload.Params, n)
	for i := 0; i < n; i++ {
		ps[i] = workload.Params{
			App: suiteApps[i%len(suiteApps)], Class: "S", Ranks: 16,
			Machine: machines[i%len(machines)], Seed: int64(1000 + i),
		}
	}
	return ps
}

// The kinds of fault a schedule draws.
const (
	faultError  = "error"  // a flaky backend: every n-th run of a scheme fails
	faultBudget = "budget" // one scheme run blows its event budget: the trace fails, the ladder degrades it
	faultPanic  = "panic"  // one scheme run panics: isolation, then the ladder degrades it
	faultCut    = "cut"    // a kill mid-append: the journal ends inside a record
	faultCancel = "cancel" // an operator cancel once some traces are done
)

// fault is one entry of a seed's schedule.
type fault struct {
	kind   string
	scheme string // error, budget, panic: the scheme struck
	n      int    // error: every n-th run; budget, panic: the n-th run; cut: the n-th record; cancel: after n traces
	max    int    // error: most failures
	at     int    // cut: a seeded draw placing the cut inside the record
	fired  int    // error: failures so far
}

func (f fault) String() string {
	if f.kind == faultError {
		return fmt.Sprintf("error every=%d max=%d %s", f.n, f.max, f.scheme)
	}
	return fmt.Sprintf("%s n=%d %s", f.kind, f.n, f.scheme)
}

// makeSchedule derives seed's schedule: one to three faults drawn from
// the campaign's failure surfaces.
func makeSchedule(seed int64, schemes []string, traces int) []fault {
	rng := rand.New(rand.NewSource(seed))
	var fs []fault
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		switch k := rng.Intn(5); k {
		case 0:
			fs = append(fs, fault{kind: faultError, scheme: schemes[rng.Intn(len(schemes))],
				n: 1 + rng.Intn(3), max: 1 + rng.Intn(4)})
		case 1, 2:
			fs = append(fs, fault{kind: []string{faultBudget, faultPanic}[k-1],
				scheme: schemes[rng.Intn(len(schemes))], n: 1 + rng.Intn(traces)})
		case 3:
			fs = append(fs, fault{kind: faultCut, n: 1 + rng.Intn(traces), at: rng.Int()})
		case 4:
			fs = append(fs, fault{kind: faultCancel, n: 1 + rng.Intn(traces)})
		}
	}
	return fs
}

// flaky is a registered scheme wrapped under its own name, failing the
// runs its faults strike the way a real backend fails: an error, a
// blown budget, a panic. It runs the scheme statelessly, so it serves
// as its own session.
type flaky struct {
	scheme.Scheme
	faults []*fault
	runs   int
	log    *[]string
}

func (f *flaky) Run(src trace.Source, mach *machine.Config, opts scheme.Options) (scheme.Outcome, error) {
	f.runs++
	for _, ft := range f.faults {
		strike := f.runs == ft.n
		if ft.kind == faultError {
			strike = f.runs%ft.n == 0 && ft.fired < ft.max
		}
		if !strike {
			continue
		}
		ft.fired++
		*f.log = append(*f.log, fmt.Sprintf("%s#%d:%s", f.Name(), f.runs, ft.kind))
		switch ft.kind {
		case faultPanic:
			panic(fmt.Sprintf("chaos: %s panics on run %d", f.Name(), f.runs))
		case faultBudget:
			return scheme.Outcome{}, fmt.Errorf("chaos: %s run %d: %w", f.Name(), f.runs, des.ErrBudgetExceeded)
		default:
			return scheme.Outcome{}, fmt.Errorf("chaos: %s fails run %d", f.Name(), f.runs)
		}
	}
	return f.Scheme.Run(src, mach, opts)
}

func (f *flaky) NewSession() scheme.Session { return f }

// normalize renders a result for equality checks, dropping wall-clock
// durations (the only nondeterministic fields).
func normalize(r *core.TraceResult) string {
	if r == nil {
		return "<failed>"
	}
	c := *r
	c.Schemes = make(map[string]scheme.Outcome, len(r.Schemes))
	for k, v := range r.Schemes {
		v.Wall = 0
		c.Schemes[k] = v
	}
	b, err := json.Marshal(&c)
	if err != nil {
		return fmt.Sprintf("<unmarshalable: %v>", err)
	}
	return string(b)
}

// faultRun executes the campaign under a fresh copy of the schedule's
// scheme and cancel faults and returns the (possibly partial) results
// plus the log of faults struck.
func faultRun(ps []workload.Params, schemes []string, ckpt string, sched []fault) ([]*core.TraceResult, []string) {
	var log []string
	cancel := make(chan struct{})
	canceled := false
	wrapped := map[string]*flaky{}
	for i := range sched {
		f := sched[i] // a copy: each run counts from zero
		if f.scheme == "" {
			continue
		}
		w := wrapped[f.scheme]
		if w == nil {
			s, _ := scheme.Get(f.scheme)
			w = &flaky{Scheme: s, log: &log}
			wrapped[f.scheme] = w
			scheme.Unregister(f.scheme)
			scheme.Register(w)
		}
		w.faults = append(w.faults, &f)
	}
	defer func() {
		for name, w := range wrapped {
			scheme.Unregister(name)
			scheme.Register(w.Scheme)
		}
	}()
	rs, _, err := core.RunCampaign(ps, core.CampaignConfig{
		Workers:        1,
		Schemes:        schemes,
		Policy:         core.FailurePolicy{KeepGoing: true, DegradeToModel: true},
		CheckpointPath: ckpt,
		Cancel:         cancel,
		Progress: func(done, _ int, _ *core.TraceResult) {
			for _, f := range sched {
				if f.kind == faultCancel && done >= f.n && !canceled {
					canceled = true
					close(cancel)
					log = append(log, fmt.Sprintf("cancel@%d", done))
				}
			}
		},
	})
	if err != nil {
		log = append(log, "error: "+err.Error())
	}
	return rs, log
}

// cutJournal applies the schedule's cut faults to a finished journal:
// a cut in record n keeps a seeded prefix of that record and nothing
// after it, what a kill in the middle of that append leaves on disk. A
// record the run never wrote is not cut.
func cutJournal(path string, sched []fault) error {
	for _, f := range sched {
		if f.kind != faultCut {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		start := 0
		for i := 0; i < f.n && start < len(data); i++ { // skip the header and n-1 records
			start += bytes.IndexByte(data[start:], '\n') + 1
		}
		end := bytes.IndexByte(data[start:], '\n')
		if end < 2 {
			continue
		}
		at := start + 1 + f.at%(end-1)
		vlogf("  journal cut at byte %d, inside record %d", at, f.n)
		if err := os.Truncate(path, int64(at)); err != nil {
			return err
		}
	}
	return nil
}

// soakOne runs the full protocol for one seed. Returned errors are
// invariant violations.
func soakOne(seed int64, ps []workload.Params, schemes []string, baseline []*core.TraceResult, dir string) error {
	sched := makeSchedule(seed, schemes, len(ps))
	vlogf("seed %d: %d fault(s):", seed, len(sched))
	for _, f := range sched {
		vlogf("  %s", f)
	}

	// Two faulted runs: the faults struck and the results must be
	// identical.
	ckptA := filepath.Join(dir, fmt.Sprintf("seed%d-a.jsonl", seed))
	ckptB := filepath.Join(dir, fmt.Sprintf("seed%d-b.jsonl", seed))
	rsA, logA := faultRun(ps, schemes, ckptA, sched)
	rsB, logB := faultRun(ps, schemes, ckptB, sched)
	vlogf("  struck: %s", strings.Join(logA, " "))
	if a, b := strings.Join(logA, " "), strings.Join(logB, " "); a != b {
		return fmt.Errorf("faults not reproducible:\n  run1: %s\n  run2: %s", a, b)
	}
	for i := range ps {
		if a, b := normalize(rsA[i]), normalize(rsB[i]); a != b {
			return fmt.Errorf("results not reproducible for %s:\n  run1: %s\n  run2: %s",
				core.CampaignKey(ps[i]), a, b)
		}
	}

	// The kill, then what the first run committed before it.
	if err := cutJournal(ckptA, sched); err != nil {
		return fmt.Errorf("cutting the journal: %w", err)
	}
	committed, err := core.LoadCheckpoint(ckptA)
	if err != nil {
		return fmt.Errorf("journal after fault run must load: %w", err)
	}

	// Recovery: resume the first run's journal with nothing failing.
	final, rep, err := core.RunCampaign(ps, core.CampaignConfig{
		Workers:        1,
		Schemes:        schemes,
		Policy:         core.FailurePolicy{KeepGoing: true},
		CheckpointPath: ckptA,
		Resume:         true,
	})
	if err != nil {
		return fmt.Errorf("recovery run failed: %w", err)
	}
	vlogf("  recovery: %s", rep.Summary())

	// Durability: every committed result survives recovery unchanged.
	after, err := core.LoadCheckpoint(ckptA)
	if err != nil {
		return fmt.Errorf("journal after recovery must load: %w", err)
	}
	for key, r := range committed {
		fr, ok := after[key]
		if !ok {
			return fmt.Errorf("committed result %s lost during recovery", key)
		}
		if normalize(fr) != normalize(r) {
			return fmt.Errorf("committed result %s rewritten during recovery", key)
		}
	}

	// Isolation: every survivor that is not degraded and has all
	// schemes OK matches the fault-free baseline bit for bit; every
	// trace converged to some result.
	for i, p := range ps {
		r := final[i]
		if r == nil {
			return fmt.Errorf("trace %s did not converge after recovery", core.CampaignKey(p))
		}
		if r.Degraded {
			// Degraded results keep the fault-free model prediction.
			bo, fo := baseline[i].Schemes[scheme.MFACT], r.Schemes[scheme.MFACT]
			if !fo.OK || fo.Total != bo.Total || fo.Events != bo.Events {
				return fmt.Errorf("degraded trace %s lost the model prediction: %+v vs %+v",
					core.CampaignKey(p), fo, bo)
			}
			continue
		}
		survived := true
		for _, o := range r.Schemes {
			if !o.OK {
				survived = false
			}
		}
		if survived && normalize(r) != normalize(baseline[i]) {
			return fmt.Errorf("surviving trace %s differs from fault-free run:\n  fault: %s\n  clean: %s",
				core.CampaignKey(p), normalize(r), normalize(baseline[i]))
		}
	}
	return nil
}

// soakTriage breaks the triage classifier under a tiered campaign — a
// seeded calibration split of 1–9 traces (and fewer than the suite's),
// too few to train on — and
// asserts the never-skip-silently contract: the plan must degrade to
// escalate-always, be counted in the report, and leave every trace with
// a full-fidelity result that is bit-identical to the fault-free
// run-everything baseline. A broken classifier may waste wall clock; it
// may never silently trust the model tier.
func soakTriage(seed int64, ps []workload.Params, schemes []string, baseline []*core.TraceResult) error {
	pol := &triage.Policy{Threshold: 0.5, Calibration: 1 + rand.New(rand.NewSource(seed)).Intn(max(1, min(9, len(ps)-1))), Seed: seed}
	vlogf("  triage: calibration split of %d", pol.Calibration)
	rs, rep, err := core.RunCampaign(ps, core.CampaignConfig{
		Workers: 1,
		Schemes: schemes,
		Policy:  core.FailurePolicy{KeepGoing: true},
		Triage:  pol,
	})
	if err != nil {
		return fmt.Errorf("tiered campaign under classifier fault failed: %w", err)
	}
	t := rep.Triage
	if t == nil {
		return fmt.Errorf("tiered campaign produced no triage report")
	}
	vlogf("  triage: %s", t.Summary())
	if !t.ClassifierDown {
		return fmt.Errorf("classifier could not train but report does not count it as down")
	}
	if t.ModelOnly != 0 {
		return fmt.Errorf("classifier down but %d trace(s) skipped simulation", t.ModelOnly)
	}
	nonCal := 0
	for _, d := range t.Decisions {
		if d.Reason == triage.ReasonCalibration {
			continue
		}
		nonCal++
		if !d.Escalate || d.Reason != triage.ReasonClassifierDown {
			return fmt.Errorf("decision %s under a down classifier is %q escalate=%v, want forced escalation",
				d.Key, d.Reason, d.Escalate)
		}
	}
	if t.Forced != nonCal {
		return fmt.Errorf("report counts %d forced escalations, want %d", t.Forced, nonCal)
	}
	for i, p := range ps {
		r := rs[i]
		if r == nil {
			return fmt.Errorf("trace %s has no result under a down classifier", core.CampaignKey(p))
		}
		if len(r.Schemes) != len(schemes) {
			return fmt.Errorf("trace %s ran %d of %d schemes under a down classifier",
				core.CampaignKey(p), len(r.Schemes), len(schemes))
		}
		if normalize(r) != normalize(baseline[i]) {
			return fmt.Errorf("escalate-always result for %s differs from run-everything baseline:\n  triage: %s\n  plain:  %s",
				core.CampaignKey(p), normalize(r), normalize(baseline[i]))
		}
	}
	return nil
}

// soakCache soak-tests the trace cache's never-trust-damage contract:
// a cold cached campaign must match the uncached baseline bit for bit,
// then a warm re-run under real damage — one entry's trace file and
// the next entry's replay program each get a byte flipped on disk, and
// a third entry's sidecar is cut short — must detect every damaged
// open, evict and regenerate a damaged entry, re-lower a damaged
// program without touching its trace, and still match the baseline. A
// final run proves the repaired cache serves fully warm. A cache fault
// may cost regeneration; it may never change a result or fail a trace.
func soakCache(seed int64, ps []workload.Params, schemes []string, baseline []*core.TraceResult, dir string) error {
	rng := rand.New(rand.NewSource(seed ^ 0x7ca))
	cache, err := tracecache.Open(filepath.Join(dir, fmt.Sprintf("cache-seed%d", seed)), tracecache.Options{
		Warnf: func(format string, args ...any) { vlogf("  cache: "+format, args...) },
	})
	if err != nil {
		return fmt.Errorf("cache open: %w", err)
	}
	run := func() ([]*core.TraceResult, error) {
		rs, _, err := core.RunCampaign(ps, core.CampaignConfig{Workers: 1, Schemes: schemes, Cache: cache})
		return rs, err
	}
	match := func(rs []*core.TraceResult, pass string) error {
		for i, p := range ps {
			if normalize(rs[i]) != normalize(baseline[i]) {
				return fmt.Errorf("%s cached result for %s differs from uncached baseline:\n  cached:   %s\n  uncached: %s",
					pass, core.CampaignKey(p), normalize(rs[i]), normalize(baseline[i]))
			}
		}
		return nil
	}

	cold, err := run()
	if err != nil {
		return fmt.Errorf("cold cached campaign failed: %w", err)
	}
	if err := match(cold, "cold"); err != nil {
		return err
	}
	st := cache.Stats()
	if st.Misses != int64(len(ps)) || st.Hits != 0 {
		return fmt.Errorf("cold run: %d misses / %d hits, want %d / 0", st.Misses, st.Hits, len(ps))
	}

	// Real damage: flip one byte of a random entry's trace file and one
	// of the next entry's program file, and cut the entry after that's
	// sidecar short.
	entries, err := cache.List()
	if err != nil || len(entries) == 0 {
		return fmt.Errorf("cache listing after cold run: %d entries, err %v", len(entries), err)
	}
	n := len(entries)
	v := rng.Intn(n)
	damage := func(path string, cut bool) error {
		img, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("reading victim file: %w", err)
		}
		if cut {
			img = img[:rng.Intn(len(img))]
		} else {
			img[rng.Intn(len(img))] ^= 1 << uint(rng.Intn(8))
		}
		return os.WriteFile(path, img, 0o644)
	}
	victim, _ := cache.EntryPaths(entries[v].Hash)
	if err := damage(victim, false); err != nil {
		return err
	}
	if n > 1 {
		if err := damage(cache.ProgramPath(entries[(v+1)%n].Hash), false); err != nil {
			return err
		}
	}
	if n > 2 {
		_, sc := cache.EntryPaths(entries[(v+2)%n].Hash)
		if err := damage(sc, true); err != nil {
			return err
		}
	}

	warm, err := run()
	if err != nil {
		return fmt.Errorf("warm cached campaign under damage failed: %w", err)
	}
	if err := match(warm, "damaged-warm"); err != nil {
		return err
	}
	// The damaged trace and the damaged sidecar each cost one eviction
	// and one regeneration; the damaged program one re-lowering.
	d := cache.Stats().Sub(st)
	corrupt, relowered := int64(1), int64(0)
	if n > 1 {
		relowered = 1
	}
	if n > 2 {
		corrupt = 2
	}
	if d.Corrupt != corrupt || d.Misses != corrupt || d.Hits != int64(len(ps))-corrupt || d.Relowered != relowered {
		return fmt.Errorf("damaged-warm run: %s, want %d corrupt, %d misses, %d hits, %d re-lowered",
			d, corrupt, corrupt, int64(len(ps))-corrupt, relowered)
	}
	vlogf("  cache: damage run: %s", d)

	// The regenerated entries must serve the next campaign fully warm.
	prev := cache.Stats()
	third, err := run()
	if err != nil {
		return fmt.Errorf("post-repair cached campaign failed: %w", err)
	}
	if err := match(third, "repaired-warm"); err != nil {
		return err
	}
	if d := cache.Stats().Sub(prev); d.Misses != 0 || d.Hits != int64(len(ps)) || d.Relowered != 0 {
		return fmt.Errorf("post-repair run: %d misses / %d hits / %d programs re-lowered, want 0 / %d / 0",
			d.Misses, d.Hits, d.Relowered, len(ps))
	}
	return nil
}

func main() {
	seed := flag.Int64("seed", 1, "first fault-schedule seed")
	runs := flag.Int("runs", 1, "number of consecutive seeds to soak")
	traces := flag.Int("traces", 6, "suite size (apps rotate through the full set; with -spec, caps the compiled manifest)")
	specPath := flag.String("spec", "", "soak the manifest of this YAML/JSON campaign spec instead of the built-in rotation")
	schemesFlag := flag.String("schemes", "mfact,packet", "scheme selection for the soak")
	flag.BoolVar(&verbose, "v", false, "print schedules, firings, and recovery summaries")
	flag.Parse()

	schemes := scheme.ParseList(*schemesFlag)
	if len(schemes) == 0 {
		fmt.Fprintln(os.Stderr, "chaos: empty scheme selection")
		os.Exit(2)
	}
	ps := buildSuite(*traces)
	if *specPath != "" {
		s, err := spec.Load(*specPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(2)
		}
		c, err := spec.Compile(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(2)
		}
		ps = c.Manifest
		// Keep soak time bounded: -traces caps a spec manifest the same
		// way it sizes the built-in rotation.
		if len(ps) > *traces {
			ps = ps[:*traces]
		}
		fmt.Printf("chaos: soaking %d traces from campaign spec %s (%s)\n", len(ps), *specPath, c.Hash())
	}

	dir, err := os.MkdirTemp("", "chaos-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)

	// The fault-free baseline every seed's survivors are held against.
	baseline, _, err := core.RunCampaign(ps, core.CampaignConfig{Workers: 1, Schemes: schemes})
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos: baseline run failed:", err)
		os.Exit(1)
	}

	var failedSeeds []int64
	for s := *seed; s < *seed+int64(*runs); s++ {
		err := soakOne(s, ps, schemes, baseline, dir)
		if err == nil {
			err = soakTriage(s, ps, schemes, baseline)
		}
		if err == nil {
			err = soakCache(s, ps, schemes, baseline, dir)
		}
		if err != nil {
			failedSeeds = append(failedSeeds, s)
			fmt.Fprintf(os.Stderr, "chaos: seed %d FAILED: %v\n", s, err)
		} else {
			fmt.Printf("chaos: seed %d ok\n", s)
		}
	}
	if len(failedSeeds) > 0 {
		// Surface every failing seed with its one-seed repro invocation,
		// so a CI log ends with the exact commands to debug locally.
		fmt.Fprintf(os.Stderr, "chaos: %d of %d seeds violated invariants:\n", len(failedSeeds), *runs)
		for _, s := range failedSeeds {
			fmt.Fprintf(os.Stderr, "  seed %d: rerun with: go run ./cmd/chaos -seed %d -traces %d -schemes %s -v\n",
				s, s, *traces, *schemesFlag)
		}
		os.Exit(1)
	}
	fmt.Printf("chaos: %d seed(s), %d traces each: all invariants held\n", *runs, *traces)
}
