// Command tradeoff runs the paper's Section V study: it materializes
// the trace suite, runs MFACT modeling and the three SST/Macro-analog
// simulations on every trace, and prints Table I, Table II, and
// Figures 1–4.
//
// Usage:
//
//	tradeoff                          # full 235-trace study
//	tradeoff -stride 8 -maxranks 256  # quick reduced study
//	tradeoff -save results.json       # persist results for cmd/diffreport
//	tradeoff -load results.json       # re-render from saved results
//
// Campaign specs (see internal/spec): drive the whole campaign from a
// declarative YAML/JSON file — manifest sweep, scheme selection,
// budgets, triage policy, and the platform-noise axis — instead of
// flags and the built-in suite:
//
//	tradeoff -spec specs/paper-235.yaml        # the study, as data
//	tradeoff -spec specs/variability.yaml      # the noise study
//	tradeoff -spec s.yaml -stride 8            # flags still filter/override
//
// Explicitly-set flags override the spec's values; -stride/-maxranks
// filter the compiled manifest. Checkpoints record the compiled spec
// hash and refuse to resume under a different spec (or under none).
// When results carry non-zero noise points, the variability study
// table renders after the figures.
//
// Campaign robustness (see internal/core's campaign runner):
//
//	tradeoff -keep-going              # isolate failing traces, render the rest
//	tradeoff -timeout 5m -max-events 2e9
//	                                  # budget each trace; runaways fail, not hang
//	tradeoff -checkpoint run.jsonl    # journal each completed trace
//	tradeoff -checkpoint run.jsonl -resume
//	                                  # re-execute only missing/failed traces
//
// The failure ladder has three rungs: a failing trace is isolated (a
// panic becomes a typed per-trace error), degraded to a model-only
// prediction when core.FailurePolicy.DegradeToModel asks for it (no
// flag sets it; cmd/chaos does), and otherwise reported as a typed
// failure. There is no retry rung and no circuit breaker: a trace run
// is a pure function of its parameters, so re-running it reproduces
// the failure, and re-running it under another seed would journal a
// different trace under the manifest's key.
//
// A first SIGINT/SIGTERM cancels the campaign cleanly (in-flight
// replays stop through the DES engines' Stop path, completed traces
// stay journaled) and prints the exact -resume invocation; a second
// signal kills immediately.
//
// Scheme selection (see internal/scheme's registry):
//
//	tradeoff -schemes mfact,packet    # run a subset of the registered schemes
//	                                  # (checkpoints record the selection and
//	                                  # refuse to resume under a different one)
//
// Tiered triage (see internal/triage): run MFACT on everything, train
// the enhanced-MFACT classifier on a calibration split, and escalate
// only flagged traces to the simulation schemes:
//
//	tradeoff -triage                           # classifier-gated escalation
//	tradeoff -triage -triage-threshold 0.3     # escalate at P ≥ 0.3
//	tradeoff -triage -triage-budget 12,30s     # ≤12 escalations, ≤30s wall
//
// Threshold 0 escalates everything (bit-identical to the plain
// campaign); threshold 1 escalates nothing (bit-identical to
// -schemes mfact). Checkpoints journal every triage decision and
// refuse to resume under a different policy.
//
// Parallelism has one knob, -workers: the traces of one campaign run
// on a pool of goroutines in one process. There is no multi-process
// mode; on a 2-vCPU host, splitting a campaign across two processes
// ran no faster than two workers in one (EXPERIMENTS.md).
//
// Trace caching (see internal/tracecache): keep the ground-truth-stamped
// traces in a content-addressed on-disk cache, so repeated campaigns,
// triage escalation passes, and resumes replay an mmap'd codec-v3 entry
// instead of regenerating and re-stamping the trace:
//
//	tradeoff -trace-cache .tradeoff-cache
//	tradeoff -trace-cache .tradeoff-cache -trace-cache-max-bytes 2000000000
//
// The directory is safe to share across concurrent processes (say a
// `tracegen -warm` and a campaign) and successive runs; results are
// bit-identical to an uncached campaign. Corrupt entries are detected
// (checksummed sidecar index), evicted, and regenerated with a
// warning.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"hpctradeoff/internal/core"
	"hpctradeoff/internal/scheme"
	"hpctradeoff/internal/spec"
	"hpctradeoff/internal/tracecache"
	"hpctradeoff/internal/triage"
	"hpctradeoff/internal/workload"
)

var (
	specPath = flag.String("spec", "", "drive the campaign from this YAML/JSON campaign spec (explicitly-set flags override spec values; -stride/-maxranks filter the compiled manifest)")
	stride   = flag.Int("stride", 1, "keep every Nth manifest entry")
	maxRanks = flag.Int("maxranks", 0, "skip traces larger than this (0 = no cap)")
	workers  = flag.Int("workers", runtime.NumCPU(), "parallel trace workers")
	minWall  = flag.Duration("minwall", 20*time.Millisecond,
		"Figure 1 drops traces whose slowest simulation is below this (the paper drops sub-second runs)")
	save       = flag.String("save", "", "save results JSON to this path (written atomically)")
	load       = flag.String("load", "", "load results JSON instead of running the suite")
	figDir     = flag.String("figdir", "", "write the figures as SVG files into this directory")
	quiet      = flag.Bool("q", false, "suppress per-trace progress")
	timeout    = flag.Duration("timeout", 0, "wall-clock budget per trace (0 = unlimited)")
	maxEvents  = flag.Uint64("max-events", 0, "DES event budget per simulation (0 = unlimited)")
	keepGoing  = flag.Bool("keep-going", false, "continue past failing traces and render from the survivors")
	checkpoint = flag.String("checkpoint", "", "append completed traces to this JSONL journal")
	resume     = flag.Bool("resume", false, "skip traces already in -checkpoint; rerun only missing/failed ones")
	schemes    = flag.String("schemes", "", "comma-separated scheme subset to run (default: all registered: "+
		strings.Join(scheme.Names(), ",")+")")
	cpuprofile      = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile      = flag.String("memprofile", "", "write a heap profile at exit to this file")
	triageOn        = flag.Bool("triage", false, "run the campaign tiered: model everything, escalate only classifier-flagged traces to simulation")
	triageThreshold = flag.Float64("triage-threshold", 0.5, "escalate when the classifier's P(DIFF > 2%) is at or above this (0 = escalate all, 1 = escalate none)")
	triageBudget    = flag.String("triage-budget", "", "escalation budget: a count, a duration, or both comma-separated (e.g. 12,30s)")
	triageSeed      = flag.Int64("triage-seed", 1, "seed for the triage classifier's cross-validated training")
	traceCache      = flag.String("trace-cache", "", "serve ground-truth-stamped traces from a content-addressed cache at this directory (created if missing; safe to share across processes and runs)")
	traceCacheMax   = flag.Int64("trace-cache-max-bytes", 0, "LRU-evict least-recently-used cache entries above this total size (0 = unbounded; requires -trace-cache)")
)

// finishProfiles finalizes any active pprof outputs; exit routes all
// early termination through it so profiles survive failed runs too.
var finishProfiles = func() {}

func exit(code int) {
	finishProfiles()
	os.Exit(code)
}

// startProfiles turns on the requested pprof outputs and installs the
// finalizer (stops the CPU profile, snapshots the heap after a GC).
func startProfiles(cpu, mem string) error {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
	}
	finishProfiles = func() {
		if cpu != "" {
			pprof.StopCPUProfile()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}
	}
	return nil
}

// resumeInvocation reconstructs the exact command line that resumes an
// interrupted campaign: the original arguments plus -resume (if it was
// not already set).
func resumeInvocation(hadResume bool) string {
	args := append([]string(nil), os.Args...)
	if !hadResume {
		args = append(args, "-resume")
	}
	return strings.Join(args, " ")
}

// loadSpec loads and compiles -spec, then folds its config into the
// flag-backed values: a flag the user set explicitly on the command
// line wins; otherwise the spec's value lands in the flag variable, so
// everything downstream reads one consistent configuration.
func loadSpec(path string, explicit map[string]bool) (*spec.Compiled, error) {
	s, err := spec.Load(path)
	if err != nil {
		return nil, err
	}
	c, err := spec.Compile(s)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !explicit["workers"] && c.Workers > 0 {
		*workers = c.Workers
	}
	if !explicit["timeout"] {
		*timeout = c.Timeout
	}
	if !explicit["max-events"] {
		*maxEvents = c.MaxEvents
	}
	if !explicit["keep-going"] {
		*keepGoing = c.KeepGoing
	}
	if !explicit["schemes"] && len(c.Schemes) > 0 {
		*schemes = strings.Join(c.Schemes, ",")
	}
	return c, nil
}

// heapBallast is a heap floor: a live but never touched (so never
// resident) allocation that the collector counts when it sets its next
// goal, which lets real garbage grow by about its size before a cycle
// starts. Replays recycle their arenas, matching records and packets,
// so a worker's live heap is a few MB on small traces and, left alone,
// the pacer collected 107 times in a 1.6 s campaign of 72 of them (38
// times with the floor). The size is also what keeps the process
// measurable: benchmark/ refuses to report peak_rss_mb for a child
// whose peak is not above the harness's own ≈ 22 MB (ru_maxrss is
// inherited across exec), and without the floor triage_small's
// campaign peaks at 17 MB. 7 MB put it at 26 MB, where it was before
// replays stopped producing garbage; since MFACT stopped allocating per
// event and cache hits stopped lowering, it took 10 MB to keep its
// median at 23.5–24 MB. Since replay ops shrank to 24 bytes and built
// traces to their exact size, it takes 11.5 MB to keep it there. The
// margin moves with the harness's own peak as much as with the
// campaign's: over five runs each with collective templates,
// triage_small's smallest campaign peak was 1.1–2.1 MB above the
// harness's and p2p_warm's 0.2–1.3 MB (1.5–2.0 and 2.5–3.4 MB just
// before), because templates shrank the mapped programs a warm
// campaign replays. No run was refused (EXPERIMENTS.md, "Collective
// templates").
var heapBallast = make([]byte, 23<<19) // 11.5 MB

func main() {
	flag.Parse()
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	var compiled *spec.Compiled
	if *specPath != "" {
		if *load != "" {
			fmt.Fprintln(os.Stderr, "tradeoff: -spec is meaningless with -load (the results are already computed)")
			os.Exit(2)
		}
		var err error
		if compiled, err = loadSpec(*specPath, explicit); err != nil {
			fmt.Fprintln(os.Stderr, "tradeoff:", err)
			os.Exit(2)
		}
	}

	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "tradeoff: -resume requires -checkpoint")
		os.Exit(2)
	}
	var triagePolicy *triage.Policy
	switch {
	case *triageOn:
		triagePolicy = &triage.Policy{Threshold: *triageThreshold, Seed: *triageSeed}
		if err := core.ParseTriageBudget(*triageBudget, triagePolicy); err != nil {
			fmt.Fprintln(os.Stderr, "tradeoff:", err)
			os.Exit(2)
		}
	case *triageBudget != "":
		fmt.Fprintln(os.Stderr, "tradeoff: -triage-budget requires -triage")
		os.Exit(2)
	case compiled != nil && compiled.Triage != nil:
		triagePolicy = compiled.Triage
	}
	if *traceCacheMax != 0 && *traceCache == "" {
		fmt.Fprintln(os.Stderr, "tradeoff: -trace-cache-max-bytes requires -trace-cache")
		os.Exit(2)
	}
	if err := startProfiles(*cpuprofile, *memprofile); err != nil {
		fmt.Fprintln(os.Stderr, "tradeoff:", err)
		exit(1)
	}
	defer finishProfiles()

	var rs []*core.TraceResult
	var err error
	if *load != "" {
		rs, err = core.LoadResultsFile(*load)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tradeoff:", err)
			exit(1)
		}
	} else {
		var suite []workload.Params
		var specHash string
		if compiled != nil {
			suite = workload.Filter(compiled.Manifest, *stride, *maxRanks)
			specHash = compiled.Hash()
			label := compiled.Name
			if label == "" {
				label = *specPath
			}
			fmt.Printf("campaign spec %s: %d traces compiled (%s)\n", label, len(compiled.Manifest), specHash)
		} else {
			suite = workload.SuiteSmall(*stride, *maxRanks)
		}
		fmt.Printf("running %d traces with %d workers...\n", len(suite), *workers)
		progress := func(done, total int, r *core.TraceResult) {
			if *quiet || r == nil {
				return
			}
			fmt.Printf("[%3d/%3d] %-36s measured=%-12v model=%v\n",
				done, total, r.ID, r.Measured, r.ModelWall().Round(time.Microsecond))
		}

		// A first SIGINT/SIGTERM cancels the campaign cleanly: workers
		// stop through the DES engines' Stop path, every completed trace
		// is already journaled, and the run ends with a resume hint. A
		// second signal kills the process immediately.
		cancel := make(chan struct{})
		sigs := make(chan os.Signal, 2)
		signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
		go func() {
			s := <-sigs
			fmt.Fprintf(os.Stderr, "\ntradeoff: %v: stopping workers and flushing the checkpoint (signal again to kill)\n", s)
			close(cancel)
			<-sigs
			fmt.Fprintln(os.Stderr, "tradeoff: killed")
			exit(1)
		}()

		// The cache directory outlives the process: a resume or any later
		// run over the same manifest hits warm.
		var cache *tracecache.Cache
		if *traceCache != "" {
			cache, err = tracecache.Open(*traceCache, tracecache.Options{
				MaxBytes: *traceCacheMax,
				Warnf: func(format string, args ...any) {
					fmt.Fprintf(os.Stderr, "tradeoff: "+format+"\n", args...)
				},
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "tradeoff:", err)
				exit(1)
			}
		}

		var rep *core.CampaignReport
		rs, rep, err = core.RunCampaign(suite, core.CampaignConfig{
			Workers:        *workers,
			Cache:          cache,
			Policy:         core.FailurePolicy{KeepGoing: *keepGoing},
			Run:            core.RunOptions{Timeout: *timeout, MaxEvents: *maxEvents},
			Schemes:        scheme.ParseList(*schemes),
			CheckpointPath: *checkpoint,
			Resume:         *resume,
			Progress:       progress,
			Cancel:         cancel,
			Triage:         triagePolicy,
			SpecHash:       specHash,
			Warnf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "tradeoff: "+format+"\n", args...)
			},
		})
		signal.Stop(sigs)
		if rep != nil {
			fmt.Printf("%s\n\n", rep.Summary())
			if rep.Triage != nil {
				fmt.Printf("%s\n\n", rep.Triage.Summary())
				if *save != "" {
					if err := core.SaveTriageReport(*save+".triage.json", rep.Triage); err != nil {
						fmt.Fprintln(os.Stderr, "tradeoff:", err)
					} else {
						fmt.Printf("triage report saved to %s\n\n", *save+".triage.json")
					}
				}
			}
			for _, te := range rep.Errors {
				fmt.Fprintf(os.Stderr, "tradeoff: failed: %v\n", te)
			}
		}
		select {
		case <-cancel:
			fmt.Fprintln(os.Stderr, "tradeoff: interrupted; completed traces are journaled")
			if *checkpoint != "" {
				fmt.Fprintf(os.Stderr, "tradeoff: resume with:\n  %s\n", resumeInvocation(*resume))
			} else {
				fmt.Fprintln(os.Stderr, "tradeoff: (no -checkpoint was set, so a rerun starts from scratch)")
			}
			exit(130)
		default:
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tradeoff:", err)
			exit(1)
		}
		if rep.Succeeded+rep.Skipped == 0 {
			fmt.Fprintln(os.Stderr, "tradeoff: no trace survived; nothing to render")
			exit(1)
		}
	}

	if *save != "" {
		// Persist only completed traces; failed entries are nil.
		saved := make([]*core.TraceResult, 0, len(rs))
		for _, r := range rs {
			if r != nil {
				saved = append(saved, r)
			}
		}
		if err := core.SaveResultsFile(*save, saved); err != nil {
			fmt.Fprintln(os.Stderr, "tradeoff:", err)
			exit(1)
		}
		fmt.Printf("results saved to %s\n\n", *save)
	}

	fmt.Println(core.BuildTable1(rs).Render())
	fmt.Println()

	t2 := core.BuildTable2(rs, map[string]int{"CMC": 1024, "LULESH": 512, "MiniFE": 1152})
	if len(t2) > 0 {
		fmt.Println(core.RenderTable2(t2))
		fmt.Println()
	}

	fmt.Println(core.BuildFigure1(rs, *minWall).Render())
	fmt.Println()
	fmt.Println(core.BuildFigure2(rs).Render())

	nas := []string{"CG", "MG", "FT", "IS", "LU", "BT", "EP", "DT"}
	doe := []string{"BigFFT", "CrystalRouter", "AMG", "MiniFE", "LULESH", "CNS", "CMC", "Nekbone", "MultiGrid", "FillBoundary"}
	fmt.Println(core.RenderAppAccuracy("Figure 3: NAS benchmarks (packet-flow vs MFACT, and vs measured)", core.BuildAppAccuracy(rs, nas)))
	fmt.Println()
	fmt.Println(core.RenderAppAccuracy("Figure 4: DOE applications (packet-flow vs MFACT, and vs measured)", core.BuildAppAccuracy(rs, doe)))

	// When the results sweep the platform-noise axis (a spec-driven
	// variability campaign), render the study table; a single baseline
	// cell means no noise points and nothing to report.
	if cells := core.BuildVariability(rs); len(cells) > 1 || (len(cells) == 1 && cells[0].Axis != "baseline") {
		fmt.Println()
		fmt.Println(core.RenderVariability(cells))
	}

	if *figDir != "" {
		paths, err := core.WriteFigures(*figDir, rs, *minWall)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tradeoff:", err)
			exit(1)
		}
		fmt.Printf("\nwrote %d SVG figures to %s\n", len(paths), *figDir)
	}
}
