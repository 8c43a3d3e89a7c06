package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hpctradeoff/internal/des"
	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/scheme"
	"hpctradeoff/internal/trace"
	"hpctradeoff/internal/tracecache"
	"hpctradeoff/internal/triage"
	"hpctradeoff/internal/workload"
)

// TestChaosSoak's flags. The defaults are the short set tier-1 runs;
// `make chaos` and CI soak more seeds, traces and schemes.
var (
	chaosSeed    = flag.Int64("chaos.seed", 1, "TestChaosSoak: first fault-schedule seed")
	chaosSeeds   = flag.Int("chaos.seeds", shortChaosSeeds, "TestChaosSoak: number of consecutive seeds to soak")
	chaosTraces  = flag.Int("chaos.traces", 6, "TestChaosSoak: suite size (apps rotate through the full set)")
	chaosSchemes = flag.String("chaos.schemes", "mfact,packet", "TestChaosSoak: scheme selection")
)

// shortChaosSeeds is the short set's seed count. A run of at least this
// many seeds must strike every recovery branch; a shorter one (a
// one-seed repro) need not.
const shortChaosSeeds = 20

// chaosBranches are the recovery branches the soak must see fire over
// its seed set, each read from what the campaign reports.
var chaosBranches = []string{
	"per-scheme error",       // an outcome failed with ErrKind unknown; its trace still completes
	"budget failure",         // a TraceError of KindBudget
	"panic isolation",        // a TraceError of KindPanic
	"torn-tail salvage",      // the resumed campaign's torn-record warning
	"cancel",                 // a campaign that scheduled fewer traces than its manifest holds
	"classifier-down",        // TriageReport.ClassifierDown
	"corrupt-entry eviction", // the cache's Stats.Corrupt
	"program re-lowering",    // the cache's Stats.Relowered
}

// TestChaosSoak soak-tests the campaign pipeline under deterministic,
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
//  3. Isolation: every trace with all schemes OK is bit-identical to a
//     fault-free run — no exemptions, since a campaign never re-runs a
//     trace under another seed.
//
// Each seed then soaks the tiered scheduler's classifier-down contract
// (soakTriage) and the trace cache's never-trust-damage contract
// (soakCache). Over a run of at least shortChaosSeeds seeds, every
// recovery branch in chaosBranches must fire at least once.
//
// Faults strike on counts (the n-th run of a scheme, the k-th completed
// trace, a seeded byte of the journal), never on the clock, and every
// campaign runs one worker, so a seed's behavior is identical across
// machines and runs. Scheme faults come from wrapping a built-in scheme
// under its own name and running the campaign through a Runner over
// the wrappers (CampaignConfig.Runner); nothing is injected into the
// pipeline itself, and no global changes. -v logs each schedule, the
// faults struck and the recovery summaries.
func TestChaosSoak(t *testing.T) {
	names := scheme.ParseList(*chaosSchemes)
	ss, err := scheme.Resolve(names)
	if err != nil || len(names) == 0 {
		t.Fatalf("-chaos.schemes %q: %d schemes, %v", *chaosSchemes, len(names), err)
	}
	s := &soak{
		t:       t,
		ps:      triageSuite(*chaosTraces),
		names:   names,
		schemes: ss,
		dir:     t.TempDir(),
		fired:   map[string]int{},
	}
	// The fault-free baseline every seed's survivors are held against.
	s.baseline, _, err = RunCampaign(s.ps, CampaignConfig{Workers: 1, Schemes: names})
	if err != nil {
		t.Fatalf("baseline run failed: %v", err)
	}
	for seed := *chaosSeed; seed < *chaosSeed+int64(*chaosSeeds); seed++ {
		err := s.soakOne(seed)
		if err == nil {
			err = s.soakTriage(seed)
		}
		if err == nil {
			err = s.soakCache(seed)
		}
		if err != nil {
			t.Errorf("seed %d: %v\n  rerun with: go test ./internal/core -run '^TestChaosSoak$' -v -chaos.seed %d -chaos.seeds 1 -chaos.traces %d -chaos.schemes %s",
				seed, err, seed, *chaosTraces, *chaosSchemes)
		}
	}
	t.Logf("recovery branches fired: %v", s.fired)
	if *chaosSeeds < shortChaosSeeds {
		return
	}
	for _, b := range chaosBranches {
		if s.fired[b] == 0 {
			t.Errorf("recovery branch %q never fired over seeds %d..%d", b, *chaosSeed, *chaosSeed+int64(*chaosSeeds)-1)
		}
	}
}

// soak is one TestChaosSoak run: the suite, the scheme selection, the
// fault-free baseline, and the count of each recovery branch fired.
type soak struct {
	t        *testing.T
	ps       []workload.Params
	names    []string
	schemes  []scheme.Scheme
	baseline []*TraceResult
	dir      string
	fired    map[string]int
}

// The kinds of fault a schedule draws.
const (
	faultError  = "error"  // a flaky backend: every n-th run of a scheme fails
	faultBudget = "budget" // one scheme run blows its event budget: the trace fails
	faultPanic  = "panic"  // one scheme run panics: isolation fails the trace
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

// flaky is a built-in scheme wrapped under its own name, failing the
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
func normalize(r *TraceResult) string {
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
// scheme and cancel faults and returns the (possibly partial) results,
// the report, and the log of faults struck.
func (s *soak) faultRun(ckpt string, sched []fault) ([]*TraceResult, *CampaignReport, []string) {
	var log []string
	ss := slices.Clone(s.schemes)
	for i := range sched {
		f := sched[i] // a copy: each run counts from zero
		if f.scheme == "" {
			continue
		}
		j := slices.Index(s.names, f.scheme)
		w, ok := ss[j].(*flaky)
		if !ok {
			w = &flaky{Scheme: ss[j], log: &log}
			ss[j] = w
		}
		w.faults = append(w.faults, &f)
	}
	cancel := make(chan struct{})
	canceled := false
	rs, rep, err := RunCampaign(s.ps, CampaignConfig{
		Workers:        1,
		Schemes:        s.names,
		KeepGoing:      true,
		CheckpointPath: ckpt,
		Cancel:         cancel,
		Runner:         runnerOver(ss...),
		Progress: func(done, _ int, _ *TraceResult) {
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
	return rs, rep, log
}

// cutAtFaults applies the schedule's cut faults to a finished journal:
// a cut in record n keeps a seeded prefix of that record and nothing
// after it, what a kill in the middle of that append leaves on disk. A
// record the run never wrote is not cut.
func (s *soak) cutAtFaults(path string, sched []fault) error {
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
		s.t.Logf("  journal cut at byte %d, inside record %d", at, f.n)
		if err := os.Truncate(path, int64(at)); err != nil {
			return err
		}
	}
	return nil
}

// accounted checks that a keep-going or canceled campaign's report
// counts every trace once: succeeded, failed (canceled included) or
// restored from the checkpoint.
func accounted(rep *CampaignReport) error {
	if n := rep.Succeeded + rep.Failed + rep.Skipped; n != rep.Total {
		return fmt.Errorf("report accounts for %d of %d traces: %s", n, rep.Total, rep.Summary())
	}
	return nil
}

// soakOne runs the fault, kill and recovery protocol for one seed.
// Returned errors are invariant violations.
func (s *soak) soakOne(seed int64) error {
	sched := makeSchedule(seed, s.names, len(s.ps))
	s.t.Logf("seed %d: %d fault(s): %v", seed, len(sched), sched)

	// Two faulted runs: the faults struck and the results must be
	// identical.
	ckptA := filepath.Join(s.dir, fmt.Sprintf("seed%d-a.jsonl", seed))
	ckptB := filepath.Join(s.dir, fmt.Sprintf("seed%d-b.jsonl", seed))
	rsA, repA, logA := s.faultRun(ckptA, sched)
	rsB, repB, logB := s.faultRun(ckptB, sched)
	for _, r := range []*CampaignReport{repA, repB} {
		if err := accounted(r); err != nil {
			return fmt.Errorf("faulted run: %w", err)
		}
	}
	s.t.Logf("  struck: %s", strings.Join(logA, " "))
	s.t.Logf("  faulted: %s", repA.Summary())
	if a, b := strings.Join(logA, " "), strings.Join(logB, " "); a != b {
		return fmt.Errorf("faults not reproducible:\n  run1: %s\n  run2: %s", a, b)
	}
	for i := range s.ps {
		if a, b := normalize(rsA[i]), normalize(rsB[i]); a != b {
			return fmt.Errorf("results not reproducible for %s:\n  run1: %s\n  run2: %s",
				CampaignKey(s.ps[i]), a, b)
		}
	}
	for _, r := range rsA {
		if r == nil {
			continue
		}
		for _, o := range r.Schemes {
			if !o.OK && o.ErrKind == string(KindUnknown) {
				s.fired["per-scheme error"]++
			}
		}
	}
	for _, te := range repA.Errors {
		switch te.Kind {
		case KindBudget:
			s.fired["budget failure"]++
		case KindPanic:
			s.fired["panic isolation"]++
		}
	}
	if repA.Canceled > 0 {
		s.fired["cancel"]++
	}

	// The kill, then what the first run committed before it.
	if err := s.cutAtFaults(ckptA, sched); err != nil {
		return fmt.Errorf("cutting the journal: %w", err)
	}
	committed, err := loadCheckpoint(ckptA)
	if err != nil {
		return fmt.Errorf("journal after fault run must load: %w", err)
	}

	// Recovery: resume the first run's journal with nothing failing.
	final, rep, err := RunCampaign(s.ps, CampaignConfig{
		Workers:        1,
		Schemes:        s.names,
		KeepGoing:      true,
		CheckpointPath: ckptA,
		Resume:         true,
		Warnf: func(format string, args ...any) {
			if w := fmt.Sprintf(format, args...); strings.Contains(w, "torn record") {
				s.fired["torn-tail salvage"]++
			}
		},
	})
	if err != nil {
		return fmt.Errorf("recovery run failed: %w", err)
	}
	s.t.Logf("  recovery: %s", rep.Summary())
	if err := accounted(rep); err != nil {
		return fmt.Errorf("recovery run: %w", err)
	}

	// Durability: every committed result survives recovery unchanged.
	after, err := loadCheckpoint(ckptA)
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

	// Isolation: every survivor with all schemes OK matches the
	// fault-free baseline bit for bit; every trace converged to some
	// result.
	for i, p := range s.ps {
		r := final[i]
		if r == nil {
			return fmt.Errorf("trace %s did not converge after recovery", CampaignKey(p))
		}
		survived := true
		for _, o := range r.Schemes {
			if !o.OK {
				survived = false
			}
		}
		if survived && normalize(r) != normalize(s.baseline[i]) {
			return fmt.Errorf("surviving trace %s differs from fault-free run:\n  fault: %s\n  clean: %s",
				CampaignKey(p), normalize(r), normalize(s.baseline[i]))
		}
	}
	return nil
}

// soakTriage breaks the triage classifier under a tiered campaign — a
// seeded calibration split of 1–9 traces (and fewer than the suite's),
// too few to train on — and asserts the never-skip-silently contract:
// the plan must degrade to escalate-always, be counted in the report,
// and leave every trace with a full-fidelity result that is
// bit-identical to the fault-free run-everything baseline. A broken
// classifier may waste wall clock; it may never silently trust the
// model tier.
func (s *soak) soakTriage(seed int64) error {
	pol := &triage.Policy{Threshold: 0.5, Calibration: 1 + rand.New(rand.NewSource(seed)).Intn(max(1, min(9, len(s.ps)-1))), Seed: seed}
	s.t.Logf("  triage: calibration split of %d", pol.Calibration)
	rs, rep, err := RunCampaign(s.ps, CampaignConfig{
		Workers:   1,
		Schemes:   s.names,
		KeepGoing: true,
		Triage:    pol,
	})
	if err != nil {
		return fmt.Errorf("tiered campaign under classifier fault failed: %w", err)
	}
	if err := accounted(rep); err != nil {
		return fmt.Errorf("tiered campaign: %w", err)
	}
	tr := rep.Triage
	if tr == nil {
		return fmt.Errorf("tiered campaign produced no triage report")
	}
	s.t.Logf("  triage: %s", tr.Summary())
	if !tr.ClassifierDown {
		return fmt.Errorf("classifier could not train but report does not count it as down")
	}
	s.fired["classifier-down"]++
	if tr.ModelOnly != 0 {
		return fmt.Errorf("classifier down but %d trace(s) skipped simulation", tr.ModelOnly)
	}
	nonCal := 0
	for _, d := range tr.Decisions {
		if d.Reason == triage.ReasonCalibration {
			continue
		}
		nonCal++
		if !d.Escalate || d.Reason != triage.ReasonClassifierDown {
			return fmt.Errorf("decision %s under a down classifier is %q escalate=%v, want forced escalation",
				d.Key, d.Reason, d.Escalate)
		}
	}
	if tr.Forced != nonCal {
		return fmt.Errorf("report counts %d forced escalations, want %d", tr.Forced, nonCal)
	}
	for i, p := range s.ps {
		r := rs[i]
		if r == nil {
			return fmt.Errorf("trace %s has no result under a down classifier", CampaignKey(p))
		}
		if len(r.Schemes) != len(s.names) {
			return fmt.Errorf("trace %s ran %d of %d schemes under a down classifier",
				CampaignKey(p), len(r.Schemes), len(s.names))
		}
		if normalize(r) != normalize(s.baseline[i]) {
			return fmt.Errorf("escalate-always result for %s differs from run-everything baseline:\n  triage: %s\n  plain:  %s",
				CampaignKey(p), normalize(r), normalize(s.baseline[i]))
		}
	}
	return nil
}

// soakCache soak-tests the trace cache's never-trust-damage contract: a
// cold cached campaign must match the uncached baseline bit for bit,
// then a warm re-run under real damage — one entry's trace file and
// the next entry's replay program each get a byte flipped on disk, and
// a third entry's sidecar is cut short — must detect every damaged
// open, evict and regenerate a damaged entry, re-lower a damaged
// program without touching its trace, and still match the baseline. A
// final run proves the repaired cache serves fully warm. A cache fault
// may cost regeneration; it may never change a result or fail a trace.
func (s *soak) soakCache(seed int64) error {
	rng := rand.New(rand.NewSource(seed ^ 0x7ca))
	cache, err := tracecache.Open(filepath.Join(s.dir, fmt.Sprintf("cache-seed%d", seed)), tracecache.Options{
		Warnf: func(format string, args ...any) { s.t.Logf("  cache: "+format, args...) },
	})
	if err != nil {
		return fmt.Errorf("cache open: %w", err)
	}
	run := func() ([]*TraceResult, error) {
		rs, _, err := RunCampaign(s.ps, CampaignConfig{Workers: 1, Schemes: s.names, Cache: cache})
		return rs, err
	}
	match := func(rs []*TraceResult, pass string) error {
		for i, p := range s.ps {
			if normalize(rs[i]) != normalize(s.baseline[i]) {
				return fmt.Errorf("%s cached result for %s differs from uncached baseline:\n  cached:   %s\n  uncached: %s",
					pass, CampaignKey(p), normalize(rs[i]), normalize(s.baseline[i]))
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
	if st.Misses != int64(len(s.ps)) || st.Hits != 0 {
		return fmt.Errorf("cold run: %d misses / %d hits, want %d / 0", st.Misses, st.Hits, len(s.ps))
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
	if d.Corrupt != corrupt || d.Misses != corrupt || d.Hits != int64(len(s.ps))-corrupt || d.Relowered != relowered {
		return fmt.Errorf("damaged-warm run: %s, want %d corrupt, %d misses, %d hits, %d re-lowered",
			d, corrupt, corrupt, int64(len(s.ps))-corrupt, relowered)
	}
	s.fired["corrupt-entry eviction"] += int(d.Corrupt)
	s.fired["program re-lowering"] += int(d.Relowered)
	s.t.Logf("  cache: damage run: %s", d)

	// The regenerated entries must serve the next campaign fully warm.
	prev := cache.Stats()
	third, err := run()
	if err != nil {
		return fmt.Errorf("post-repair cached campaign failed: %w", err)
	}
	if err := match(third, "repaired-warm"); err != nil {
		return err
	}
	if d := cache.Stats().Sub(prev); d.Misses != 0 || d.Hits != int64(len(s.ps)) || d.Relowered != 0 {
		return fmt.Errorf("post-repair run: %d misses / %d hits / %d programs re-lowered, want 0 / %d / 0",
			d.Misses, d.Hits, d.Relowered, len(s.ps))
	}
	return nil
}
