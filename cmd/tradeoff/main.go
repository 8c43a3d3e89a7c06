// Command tradeoff runs the paper's Section V study: it materializes
// the trace suite, runs MFACT modeling and the three SST/Macro-analog
// simulations on every trace, and prints Table I, Table II, and
// Figures 1–4.
//
// Usage:
//
//	tradeoff                          # full 235-trace study (specs/paper-235.yaml)
//	tradeoff -stride 8 -maxranks 256  # quick reduced study
//	tradeoff -save results.json       # persist results for cmd/diffreport
//	tradeoff -load results.json       # re-render from saved results
//
// Every campaign is a campaign spec (see internal/spec): a declarative
// YAML/JSON file naming the manifest sweep, scheme selection, budgets,
// triage policy, and the platform-noise axis. Without -spec the
// campaign is the built-in study, specs/paper-235.yaml embedded:
//
//	tradeoff -spec specs/paper-235.yaml        # the study, same as no -spec
//	tradeoff -spec specs/variability.yaml      # the noise study
//	tradeoff -spec s.yaml -stride 8 -triage-threshold 0.3
//	                                  # flags filter and override
//
// Each campaign flag set on the command line writes its field into the
// spec before it is compiled (see compileCampaign), so the spec hash
// that checkpoints record describes what runs; -stride/-maxranks filter
// the compiled manifest. When results carry non-zero noise points, the
// variability study table renders after the figures.
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
// A first SIGINT/SIGTERM cancels the campaign cleanly (in-flight
// replays stop through the DES engines' Stop path, completed traces
// stay journaled) and prints the exact -resume invocation; a second
// signal kills immediately.
//
// Scheme selection (see internal/scheme's table):
//
//	tradeoff -schemes mfact,packet    # run a subset of the schemes
//	                                  # (a set: the order given does not matter)
//
// Tiered triage (see internal/triage): run MFACT on everything, train
// the enhanced-MFACT classifier on a calibration split, and escalate
// only flagged traces to the simulation schemes:
//
//	tradeoff -triage                           # classifier-gated escalation
//	tradeoff -triage -triage-threshold 0.3     # escalate at P ≥ 0.3
//	tradeoff -triage -triage-budget 12,30s     # ≤12 escalations, ≤30s wall
//	tradeoff -spec tiered.yaml -triage=false   # drop the spec's triage block
//
// Threshold 0 escalates everything (bit-identical to the plain
// campaign); threshold 1 escalates nothing (bit-identical to
// -schemes mfact). Checkpoints journal every triage decision.
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
	"cmp"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"

	"hpctradeoff/internal/core"
	"hpctradeoff/internal/scheme"
	"hpctradeoff/internal/spec"
	"hpctradeoff/internal/tracecache"
	"hpctradeoff/internal/triage"
	"hpctradeoff/internal/workload"
	"hpctradeoff/specs"
)

// options holds the command's flag values.
type options struct {
	spec, save, load, figDir, checkpoint, schemes, triageBudget, traceCache string
	cpuProfile, memProfile                                                  string
	stride, maxRanks, workers                                               int
	minWall, timeout                                                        time.Duration
	maxEvents                                                               uint64
	quiet, keepGoing, resume, triage                                        bool
	triageThreshold                                                         float64
	triageSeed, traceCacheMax                                               int64
}

// newFlags defines the command's flags on fs.
func newFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.spec, "spec", "", "run this YAML/JSON campaign spec instead of the built-in paper-235 study (explicitly-set flags override its values; -stride/-maxranks filter the compiled manifest)")
	fs.IntVar(&o.stride, "stride", 1, "keep every Nth manifest entry")
	fs.IntVar(&o.maxRanks, "maxranks", 0, "skip traces larger than this (0 = no cap)")
	fs.IntVar(&o.workers, "workers", 0, "parallel trace workers (0 = all cores; default: the spec's value)")
	fs.DurationVar(&o.minWall, "minwall", 20*time.Millisecond,
		"Figure 1 drops traces whose slowest simulation is below this (the paper drops sub-second runs)")
	fs.StringVar(&o.save, "save", "", "save results JSON to this path (written atomically)")
	fs.StringVar(&o.load, "load", "", "load results JSON instead of running the suite")
	fs.StringVar(&o.figDir, "figdir", "", "write the figures as SVG files into this directory")
	fs.BoolVar(&o.quiet, "q", false, "suppress per-trace progress")
	fs.DurationVar(&o.timeout, "timeout", 0, "wall-clock budget per trace (0 = unlimited)")
	fs.Uint64Var(&o.maxEvents, "max-events", 0, "DES event budget per simulation (0 = unlimited)")
	fs.BoolVar(&o.keepGoing, "keep-going", false, "continue past failing traces and render from the survivors")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "append completed traces to this JSONL journal")
	fs.BoolVar(&o.resume, "resume", false, "skip traces already in -checkpoint; rerun only missing/failed ones")
	fs.StringVar(&o.schemes, "schemes", "", "comma-separated scheme subset to run (default: the spec's, else all built-in: "+
		strings.Join(scheme.Names(), ",")+")")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile at exit to this file")
	fs.BoolVar(&o.triage, "triage", false, "run the campaign tiered: model everything, escalate only classifier-flagged traces to simulation (a spec's triage block already does)")
	fs.Float64Var(&o.triageThreshold, "triage-threshold", 0.5, "escalate when the classifier's P(DIFF > 2%) is at or above this (0 = escalate all, 1 = escalate none)")
	fs.StringVar(&o.triageBudget, "triage-budget", "", "escalation budget: a count, a duration, or both comma-separated (e.g. 12,30s)")
	fs.Int64Var(&o.triageSeed, "triage-seed", 1, "seed for the triage classifier's cross-validated training")
	fs.StringVar(&o.traceCache, "trace-cache", "", "serve ground-truth-stamped traces from a content-addressed cache at this directory (created if missing; safe to share across processes and runs)")
	fs.Int64Var(&o.traceCacheMax, "trace-cache-max-bytes", 0, "LRU-evict least-recently-used cache entries above this total size (0 = unbounded; requires -trace-cache)")
	return o
}

// compileCampaign is the one way a campaign is configured. It starts
// from the -spec file, or from the embedded paper-235 study without
// one, writes the field of each campaign flag set on fs into that spec
// (-workers, -schemes, -keep-going, -timeout, -max-events, -triage*),
// and compiles it once. The compiled spec is then the campaign's whole
// configuration, so its hash, which the checkpoint journal records,
// describes what runs. The -triage-threshold, -triage-seed and
// -triage-budget flags set fields of the spec's triage block, which
// -triage adds when there is none; with no block at all they are an
// error. Every error is a usage error.
func compileCampaign(fs *flag.FlagSet, o *options) (*spec.Compiled, error) {
	s, err := specs.Load(o.spec)
	if err != nil {
		return nil, err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["workers"] {
		s.Workers = o.workers
	}
	if set["keep-going"] {
		s.KeepGoing = o.keepGoing
	}
	if set["timeout"] {
		s.Timeout = o.timeout
	}
	if set["max-events"] {
		s.MaxEvents = o.maxEvents
	}
	if set["schemes"] {
		sel, err := schemeSet(scheme.ParseList(o.schemes))
		if err != nil {
			return nil, err
		}
		// Rewriting an equal set in another order would change the hash
		// but not the campaign.
		if cur, err := schemeSet(s.Schemes); err != nil || !slices.Equal(sel, cur) {
			s.Schemes = sel
		}
	}
	if set["triage"] {
		switch {
		case !o.triage:
			s.Triage = nil
		case s.Triage == nil:
			s.Triage = &triage.Policy{Threshold: o.triageThreshold, Seed: o.triageSeed}
		}
	}
	if set["triage-threshold"] || set["triage-seed"] || set["triage-budget"] {
		if s.Triage == nil {
			return nil, errors.New("-triage-threshold, -triage-seed and -triage-budget set fields of a triage policy; add -triage, or use a spec with a triage block")
		}
		pol := *s.Triage
		if set["triage-threshold"] {
			pol.Threshold = o.triageThreshold
		}
		if set["triage-seed"] {
			pol.Seed = o.triageSeed
		}
		if err := core.ParseTriageBudget(o.triageBudget, &pol); err != nil {
			return nil, err
		}
		s.Triage = &pol
	}
	return spec.Compile(s)
}

// schemeSet returns the named schemes in table order, all of them for
// an empty list: the selection as a set, whatever order it was given in.
func schemeSet(names []string) ([]string, error) {
	if _, err := scheme.Resolve(names); err != nil {
		return nil, err
	}
	var out []string
	for _, n := range scheme.Names() {
		if len(names) == 0 || slices.Contains(names, n) {
			out = append(out, n)
		}
	}
	return out, nil
}

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
	o := newFlags(flag.CommandLine)
	flag.Parse()

	if o.load != "" && o.spec != "" {
		fmt.Fprintln(os.Stderr, "tradeoff: -spec is meaningless with -load (the results are already computed)")
		os.Exit(2)
	}
	if o.resume && o.checkpoint == "" {
		fmt.Fprintln(os.Stderr, "tradeoff: -resume requires -checkpoint")
		os.Exit(2)
	}
	if o.traceCacheMax != 0 && o.traceCache == "" {
		fmt.Fprintln(os.Stderr, "tradeoff: -trace-cache-max-bytes requires -trace-cache")
		os.Exit(2)
	}
	var compiled *spec.Compiled
	if o.load == "" {
		var err error
		if compiled, err = compileCampaign(flag.CommandLine, o); err != nil {
			fmt.Fprintln(os.Stderr, "tradeoff:", err)
			os.Exit(2)
		}
	}
	if err := startProfiles(o.cpuProfile, o.memProfile); err != nil {
		fmt.Fprintln(os.Stderr, "tradeoff:", err)
		exit(1)
	}
	defer finishProfiles()

	var rs []*core.TraceResult
	var err error
	if o.load != "" {
		rs, err = core.LoadResultsFile(o.load)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tradeoff:", err)
			exit(1)
		}
	} else {
		suite := workload.Filter(compiled.Manifest, o.stride, o.maxRanks)
		workers := compiled.Workers
		if workers <= 0 {
			workers = runtime.NumCPU()
		}
		fmt.Printf("campaign spec %s: %d traces compiled (%s)\n", cmp.Or(compiled.Name, o.spec), len(compiled.Manifest), compiled.Hash())
		fmt.Printf("running %d traces with %d workers...\n", len(suite), workers)
		progress := func(done, total int, r *core.TraceResult) {
			if o.quiet || r == nil {
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
		if o.traceCache != "" {
			cache, err = tracecache.Open(o.traceCache, tracecache.Options{
				MaxBytes: o.traceCacheMax,
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
			Workers:        compiled.Workers,
			Schemes:        compiled.Schemes,
			KeepGoing:      compiled.KeepGoing,
			Timeout:        compiled.Timeout,
			MaxEvents:      compiled.MaxEvents,
			Triage:         compiled.Triage,
			SpecHash:       compiled.Hash(),
			Cache:          cache,
			CheckpointPath: o.checkpoint,
			Resume:         o.resume,
			Progress:       progress,
			Cancel:         cancel,
			Warnf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "tradeoff: "+format+"\n", args...)
			},
		})
		signal.Stop(sigs)
		if rep != nil {
			fmt.Printf("%s\n\n", rep.Summary())
			if rep.Triage != nil {
				fmt.Printf("%s\n\n", rep.Triage.Summary())
				if o.save != "" {
					if err := core.SaveTriageReport(o.save+".triage.json", rep.Triage); err != nil {
						fmt.Fprintln(os.Stderr, "tradeoff:", err)
					} else {
						fmt.Printf("triage report saved to %s\n\n", o.save+".triage.json")
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
			if o.checkpoint != "" {
				fmt.Fprintf(os.Stderr, "tradeoff: resume with:\n  %s\n", resumeInvocation(o.resume))
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

	if o.save != "" {
		// Persist only completed traces; failed entries are nil.
		saved := make([]*core.TraceResult, 0, len(rs))
		for _, r := range rs {
			if r != nil {
				saved = append(saved, r)
			}
		}
		if err := core.SaveResultsFile(o.save, saved); err != nil {
			fmt.Fprintln(os.Stderr, "tradeoff:", err)
			exit(1)
		}
		fmt.Printf("results saved to %s\n\n", o.save)
	}

	fmt.Println(core.BuildTable1(rs).Render())
	fmt.Println()

	t2 := core.BuildTable2(rs, map[string]int{"CMC": 1024, "LULESH": 512, "MiniFE": 1152})
	if len(t2) > 0 {
		fmt.Println(core.RenderTable2(t2))
		fmt.Println()
	}

	fmt.Println(core.BuildFigure1(rs, o.minWall).Render())
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

	if o.figDir != "" {
		paths, err := core.WriteFigures(o.figDir, rs, o.minWall)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tradeoff:", err)
			exit(1)
		}
		fmt.Printf("\nwrote %d SVG figures to %s\n", len(paths), o.figDir)
	}
}
