// Command chaos soak-tests the campaign pipeline under deterministic,
// seeded fault schedules. For each seed it derives a random-but-
// reproducible schedule of injected faults (scheme errors and panics,
// budget blowups, DES-step faults, torn checkpoint appends, sync
// failures), runs the campaign under it twice, then disarms and
// resumes from the journal, asserting three invariants:
//
//  1. Reproducibility: two runs with the same seed fire the identical
//     fault schedule and produce identical results.
//  2. Durability: no result committed to the checkpoint journal before
//     a (simulated) kill is ever lost or rewritten by the recovery run.
//  3. Isolation: every trace that is not degraded and has all schemes
//     OK is bit-identical to a fault-free run — no exemptions, since a
//     campaign never re-runs a trace under another seed; degraded
//     traces still carry the fault-free model prediction.
//
// Usage:
//
//	chaos -seed 1              # one schedule
//	chaos -seed 1 -runs 20     # soak seeds 1..20 (make chaos-short)
//	chaos -seed 7 -v           # print the schedule and every firing
//
// Schedules use only count- and probability-based triggers (never
// wall-clock stalls) and the campaign runs with one worker, so a seed's
// behavior is identical across machines and runs.
//
// Each seed additionally soaks the tiered scheduler's classifier-down
// contract (soakTriage) and the trace cache's never-trust-damage
// contract (soakCache: a real on-disk bit flip plus a tracecache/open
// failpoint firing must regenerate, never change a result).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"hpctradeoff/internal/core"
	"hpctradeoff/internal/des"
	"hpctradeoff/internal/faultinject"
	"hpctradeoff/internal/scheme"
	"hpctradeoff/internal/spec"
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

// makeSchedule derives seed's fault schedule: one to three rules drawn
// from the campaign's failure surfaces. Only count/probability triggers
// — wall-clock actions would make the schedule machine-dependent.
func makeSchedule(seed int64, schemes []string, traces int) []faultinject.Rule {
	rng := rand.New(rand.NewSource(seed))
	var rules []faultinject.Rule
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		switch rng.Intn(5) {
		case 0: // per-scheme error: a flaky backend
			rules = append(rules, faultinject.Rule{
				Site: "scheme/run", Label: schemes[rng.Intn(len(schemes))],
				Action: faultinject.ActError,
				Every:  uint64(1 + rng.Intn(3)), MaxFires: 1 + rng.Intn(4),
			})
		case 1: // budget blowup: the whole trace fails, ladder degrades it
			rules = append(rules, faultinject.Rule{
				Site: "scheme/run", Label: schemes[rng.Intn(len(schemes))],
				Action: faultinject.ActError, Err: des.ErrBudgetExceeded,
				Hits: []uint64{uint64(1 + rng.Intn(traces))}, MaxFires: 1,
			})
		case 2: // panic inside a scheme adapter: isolation, then the ladder degrades it
			rules = append(rules, faultinject.Rule{
				Site: "scheme/run", Label: schemes[rng.Intn(len(schemes))],
				Action: faultinject.ActPanic,
				Hits:   []uint64{uint64(1 + rng.Intn(traces))}, MaxFires: 1,
			})
		case 3: // torn checkpoint append: the mid-write kill
			rules = append(rules, faultinject.Rule{
				Site: "core/checkpoint-append", Action: faultinject.ActTorn,
				Hits: []uint64{uint64(1 + rng.Intn(traces))}, MaxFires: 1,
			})
		case 4: // probabilistic DES-step fault: sporadic engine cancellation
			rules = append(rules, faultinject.Rule{
				Site: "des/step", Action: faultinject.ActError,
				Prob: 1e-5, MaxFires: 1 + rng.Intn(2),
			})
		}
	}
	return rules
}

func ruleString(r faultinject.Rule) string {
	s := r.Site
	if r.Label != "" {
		s += "[" + r.Label + "]"
	}
	switch {
	case len(r.Hits) > 0:
		s += fmt.Sprintf(" hits=%v", r.Hits)
	case r.Every > 0:
		s += fmt.Sprintf(" every=%d", r.Every)
	case r.Prob > 0:
		s += fmt.Sprintf(" prob=%g", r.Prob)
	}
	act := r.Action
	if act == "" {
		act = faultinject.ActError
	}
	s += fmt.Sprintf(" action=%s", act)
	if r.Err != nil {
		s += fmt.Sprintf(" err=%v", r.Err)
	}
	if r.MaxFires > 0 {
		s += fmt.Sprintf(" max=%d", r.MaxFires)
	}
	return s
}

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

func firedString(fs []faultinject.Firing) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return strings.Join(parts, " ")
}

// faultRun executes the campaign under the armed schedule and returns
// the (possibly partial) results plus the firing log. An infrastructure
// error (torn append, failed sync) is the simulated kill, not a soak
// failure.
func faultRun(ps []workload.Params, schemes []string, ckpt string) ([]*core.TraceResult, []faultinject.Firing, error) {
	rs, _, err := core.RunCampaign(ps, core.CampaignConfig{
		Workers:        1,
		Schemes:        schemes,
		Policy:         core.FailurePolicy{KeepGoing: true, DegradeToModel: true},
		CheckpointPath: ckpt,
	})
	if err != nil {
		vlogf("  campaign stopped (simulated kill): %v", err)
	}
	return rs, faultinject.Fired(), nil
}

// soakOne runs the full protocol for one seed. Returned errors are
// invariant violations.
func soakOne(seed int64, ps []workload.Params, schemes []string, baseline []*core.TraceResult, dir string) error {
	rules := makeSchedule(seed, schemes, len(ps))
	vlogf("seed %d: %d rule(s):", seed, len(rules))
	for _, r := range rules {
		vlogf("  %s", ruleString(r))
	}

	// Two armed runs: the schedule and the results must be identical.
	ckptA := filepath.Join(dir, fmt.Sprintf("seed%d-a.jsonl", seed))
	ckptB := filepath.Join(dir, fmt.Sprintf("seed%d-b.jsonl", seed))
	if err := faultinject.Arm(seed, rules); err != nil {
		return fmt.Errorf("arm: %w", err)
	}
	rsA, firedA, err := faultRun(ps, schemes, ckptA)
	if err != nil {
		return err
	}
	if err := faultinject.Arm(seed, rules); err != nil {
		return fmt.Errorf("re-arm: %w", err)
	}
	rsB, firedB, err := faultRun(ps, schemes, ckptB)
	faultinject.Disarm()
	if err != nil {
		return err
	}
	vlogf("  fired: %s", firedString(firedA))
	if a, b := firedString(firedA), firedString(firedB); a != b {
		return fmt.Errorf("fault schedule not reproducible:\n  run1: %s\n  run2: %s", a, b)
	}
	for i := range ps {
		if a, b := normalize(rsA[i]), normalize(rsB[i]); a != b {
			return fmt.Errorf("results not reproducible for %s:\n  run1: %s\n  run2: %s",
				core.CampaignKey(ps[i]), a, b)
		}
	}

	// What the first run committed before any kill.
	committed, err := core.LoadCheckpoint(ckptA)
	if err != nil {
		return fmt.Errorf("journal after fault run must load: %w", err)
	}

	// Recovery: resume the first run's journal with faults disarmed.
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

// soakTriage breaks the triage classifier under a tiered campaign and
// asserts the never-skip-silently contract: a classifier failure —
// whether training (even seeds) or a mid-plan scoring call (odd seeds)
// — must degrade the plan to escalate-always, be counted in the
// report, and leave every trace with a full-fidelity result that is
// bit-identical to the fault-free run-everything baseline. A broken
// classifier may waste wall clock; it may never silently trust the
// model tier.
func soakTriage(seed int64, ps []workload.Params, schemes []string, baseline []*core.TraceResult) error {
	rule := faultinject.Rule{
		Site: "triage/score", Label: "train",
		Action: faultinject.ActError, Hits: []uint64{1}, MaxFires: 1,
	}
	if seed%2 == 1 {
		// Break the first Score call instead (hit 1 at the site is the
		// Train call; hit 2 the first score): the plan must degrade
		// retroactively, flipping candidates already cleared.
		rule.Label = ""
		rule.Hits = []uint64{2}
	}
	vlogf("  triage rule: %s", ruleString(rule))
	if err := faultinject.Arm(seed, []faultinject.Rule{rule}); err != nil {
		return fmt.Errorf("triage arm: %w", err)
	}
	pol := &triage.Policy{Threshold: 0.5, Calibration: 2, Seed: seed}
	rs, rep, err := core.RunCampaign(ps, core.CampaignConfig{
		Workers: 1,
		Schemes: schemes,
		Policy:  core.FailurePolicy{KeepGoing: true},
		Triage:  pol,
	})
	faultinject.Disarm()
	if err != nil {
		return fmt.Errorf("tiered campaign under classifier fault failed: %w", err)
	}
	t := rep.Triage
	if t == nil {
		return fmt.Errorf("tiered campaign produced no triage report")
	}
	vlogf("  triage: %s", t.Summary())
	if !t.ClassifierDown {
		return fmt.Errorf("classifier fault fired but report does not count it as down")
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
// another entry's replay program each get a byte flipped on disk, and
// the tracecache/open failpoint fires once — must detect every damaged
// open, evict and regenerate a damaged trace, re-lower a damaged
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

	// Real damage: flip one byte of a random entry's trace file, and one
	// byte of the next entry's program file.
	entries, err := cache.List()
	if err != nil || len(entries) == 0 {
		return fmt.Errorf("cache listing after cold run: %d entries, err %v", len(entries), err)
	}
	v := rng.Intn(len(entries))
	victim, _ := cache.EntryPaths(entries[v].Hash)
	flip := func(path string) error {
		img, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("reading victim file: %w", err)
		}
		img[rng.Intn(len(img))] ^= 1 << uint(rng.Intn(8))
		if err := os.WriteFile(path, img, 0o644); err != nil {
			return fmt.Errorf("flipping victim file: %w", err)
		}
		return nil
	}
	if err := flip(victim); err != nil {
		return err
	}
	progVictim := len(entries) > 1
	if progVictim {
		if err := flip(cache.ProgramPath(entries[(v+1)%len(entries)].Hash)); err != nil {
			return err
		}
	}

	// Injected damage: tracecache/open fires on one of the warm opens.
	if err := faultinject.Arm(seed, []faultinject.Rule{{
		Site: "tracecache/open", Action: faultinject.ActError,
		Hits: []uint64{uint64(1 + rng.Intn(len(ps)))}, MaxFires: 1,
	}}); err != nil {
		return fmt.Errorf("cache arm: %w", err)
	}
	warm, err := run()
	faultinject.Disarm()
	if err != nil {
		return fmt.Errorf("warm cached campaign under damage failed: %w", err)
	}
	if err := match(warm, "damaged-warm"); err != nil {
		return err
	}
	d := cache.Stats().Sub(st)
	// The failpoint may land on the flipped entry (1 corrupt open) or on
	// a healthy one (2); either way every corrupt open must have
	// regenerated and nothing else may have missed.
	if d.Corrupt < 1 || d.Corrupt > 2 {
		return fmt.Errorf("damaged-warm run evicted %d corrupt entries, want 1 or 2", d.Corrupt)
	}
	if d.Misses != d.Corrupt || d.Hits != int64(len(ps))-d.Corrupt {
		return fmt.Errorf("damaged-warm run: %d misses / %d hits with %d corrupt, want %d / %d",
			d.Misses, d.Hits, d.Corrupt, d.Corrupt, int64(len(ps))-d.Corrupt)
	}
	// The damaged program is re-lowered from its intact trace, unless the
	// failpoint evicted that whole entry first; either way it is counted.
	if progVictim && (d.Relowered > 1 || d.Corrupt+d.Relowered < 2) {
		return fmt.Errorf("damaged-warm run re-lowered %d programs with %d corrupt entries; the flipped program went unnoticed",
			d.Relowered, d.Corrupt)
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
