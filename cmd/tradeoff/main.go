// Command tradeoff runs the paper's Section V study: it materializes
// the trace suite, runs MFACT modeling and the three SST/Macro-analog
// simulations on every trace, and prints Table I, Table II, and
// Figures 1–4.
//
// Usage:
//
//	tradeoff                          # full 235-trace study
//	tradeoff -stride 8 -maxranks 256  # quick reduced study
//	tradeoff -save results.json       # persist results for cmd/predictor
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
// Multi-process sharding (see internal/core's shard machinery): split
// the manifest into N contiguous ranges, run each range in its own
// worker process with its own checkpoint journal shard, then merge the
// shard journals into one ordinary checkpoint and render:
//
//	tradeoff -shards 4 -checkpoint run.jsonl
//
// Shards share nothing at runtime, so a crashed or killed worker loses
// only its own range; re-running the same command resumes every shard
// from its journal (completed shards fast-forward). Results are
// bit-identical to a single-process run of the same manifest. -shards
// requires -checkpoint and does not compose with -triage (the
// classifier trains on a global calibration split, which a shard
// cannot see). -shard-worker is internal: the parent re-execs itself
// with it to run one shard's range. The flags a worker inherits are
// the explicit shardForward table below — a new manifest- or
// config-shaping flag must be added there (the exhaustiveness test
// fails the build otherwise).
//
// Trace caching (see internal/tracecache): keep the ground-truth-stamped
// traces in a content-addressed on-disk cache, so repeated campaigns,
// triage escalation passes, resumes, and shard re-runs replay an mmap'd
// codec-v3 entry instead of regenerating and re-stamping the trace:
//
//	tradeoff -trace-cache .tradeoff-cache
//	tradeoff -trace-cache .tradeoff-cache -trace-cache-max-bytes 2000000000
//
// The directory is safe to share across shard processes and successive
// runs; results are bit-identical to an uncached campaign. Corrupt
// entries are detected (checksummed sidecar index), evicted, and
// regenerated with a warning.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
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

// The flag set lives at package level so the shard-forwarding tables
// below (and their exhaustiveness test) can enumerate it.
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
	retries    = flag.Int("retries", 0, "retry transiently failing traces up to N times")
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
	shards          = flag.Int("shards", 0, "split the campaign across N worker processes with per-shard checkpoint journals (requires -checkpoint)")
	shardWorker     = flag.Int("shard-worker", -1, "internal: run as shard worker I of -shards (set by the parent process)")
	traceCache      = flag.String("trace-cache", "", "serve ground-truth-stamped traces from a content-addressed cache at this directory (created if missing; safe to share across shards and runs)")
	traceCacheMax   = flag.Int64("trace-cache-max-bytes", 0, "LRU-evict least-recently-used cache entries above this total size (0 = unbounded; requires -trace-cache)")
)

// shardForward lists every flag a shard worker must inherit from the
// parent: anything that shapes the manifest (the worker re-derives its
// range from the same manifest), the campaign config, or the journal
// location. The parent re-exec builds worker command lines from this
// table — os.Args is no longer forwarded wholesale — and
// TestShardFlagTablesExhaustive pins every defined flag to exactly one
// of the two tables, so a new flag cannot silently skip the decision.
var shardForward = []string{
	"spec", "stride", "maxranks", "workers", "q",
	"timeout", "max-events", "keep-going", "retries",
	"checkpoint", "resume", "schemes", "shards",
	"trace-cache", "trace-cache-max-bytes",
}

// shardLocal lists the flags that stay in the parent process: pure
// rendering and persistence (the parent renders after the merge),
// per-process profiling (worker profiles would clobber one file), the
// triage flags (-shards rejects -triage up front), and -shard-worker
// itself (appended per worker, never inherited).
var shardLocal = []string{
	"minwall", "save", "load", "figdir",
	"cpuprofile", "memprofile",
	"triage", "triage-threshold", "triage-budget", "triage-seed",
	"shard-worker",
}

// shardWorkerArgs builds shard i's command line: every explicitly-set
// forwarded flag with its current value, plus the worker marker. Only
// explicitly-set flags are passed, so the worker re-runs the same
// flag/spec merge the parent did.
func shardWorkerArgs(shard int) []string {
	forward := map[string]bool{}
	for _, n := range shardForward {
		forward[n] = true
	}
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if forward[f.Name] {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	return append(args, fmt.Sprintf("-shard-worker=%d", shard))
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

// prefixWriter tags each output line of a shard worker with its shard
// label, so the interleaved output of N concurrent children stays
// attributable.
type prefixWriter struct {
	w      io.Writer
	prefix []byte
	buf    bytes.Buffer
}

func (p *prefixWriter) Write(b []byte) (int, error) {
	p.buf.Write(b)
	for {
		line, err := p.buf.ReadBytes('\n')
		if err != nil {
			// Partial line: keep it buffered for the next Write.
			p.buf.Write(line)
			break
		}
		p.w.Write(p.prefix)
		p.w.Write(line)
	}
	return len(b), nil
}

// runShardParent forks one worker process per shard (this binary with
// the shardForward flags plus -shard-worker=i), waits for all of them,
// and merges their journal shards into the single checkpoint at
// ckptPath. Signals are forwarded so Ctrl-C interrupts every shard
// cleanly (each flushes its own journal and exits; re-running the same
// command resumes).
func runShardParent(shards int, ckptPath string, hadResume bool) error {
	fmt.Printf("sharding the campaign across %d worker processes...\n", shards)
	cmds := make([]*exec.Cmd, shards)
	for i := range cmds {
		cmd := exec.Command(os.Args[0], shardWorkerArgs(i)...)
		cmd.Stdout = &prefixWriter{w: os.Stdout, prefix: []byte(fmt.Sprintf("[shard %d] ", i))}
		cmd.Stderr = &prefixWriter{w: os.Stderr, prefix: []byte(fmt.Sprintf("[shard %d] ", i))}
		if err := cmd.Start(); err != nil {
			for _, c := range cmds[:i] {
				c.Process.Kill()
				c.Wait()
			}
			return fmt.Errorf("starting shard %d: %w", i, err)
		}
		cmds[i] = cmd
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		for s := range sigs {
			for _, c := range cmds {
				if c.Process != nil {
					c.Process.Signal(s)
				}
			}
		}
	}()

	failed := 0
	for i, c := range cmds {
		if err := c.Wait(); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "tradeoff: shard %d: %v\n", i, err)
		}
	}
	signal.Stop(sigs)
	close(sigs)
	if failed > 0 {
		return fmt.Errorf("%d of %d shards did not complete; their progress is journaled — resume with:\n  %s",
			failed, shards, resumeInvocation(hadResume))
	}

	stats, err := core.MergeShardJournals(ckptPath, shards)
	if err != nil {
		return err
	}
	if err := core.RemoveShardJournals(ckptPath, shards); err != nil {
		return fmt.Errorf("cleaning up shard journals: %w", err)
	}
	fmt.Printf("merged %d results from %d shard journals into %s\n", stats.Results, shards, ckptPath)
	return nil
}

// loadSpec loads and compiles -spec, then folds its config into the
// flag-backed values: a flag the user set explicitly on the command
// line wins; otherwise the spec's value lands in the flag variable, so
// everything downstream (including the shard workers, which re-run
// this merge) reads one consistent configuration.
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
	if !explicit["retries"] {
		*retries = c.MaxRetries
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
// event and cache hits stopped lowering, it takes 10 MB to keep it at
// 25–27 MB.
var heapBallast = make([]byte, 10<<20)

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
	if *shards > 1 {
		if *checkpoint == "" {
			fmt.Fprintln(os.Stderr, "tradeoff: -shards requires -checkpoint (each shard journals to <checkpoint>.shardI-of-N)")
			os.Exit(2)
		}
		if triagePolicy != nil {
			fmt.Fprintln(os.Stderr, "tradeoff: -shards does not compose with triage (the classifier trains on a global calibration split)")
			os.Exit(2)
		}
		if *load != "" {
			fmt.Fprintln(os.Stderr, "tradeoff: -shards is meaningless with -load")
			os.Exit(2)
		}
	} else if *shards < 0 || *shards == 1 {
		fmt.Fprintln(os.Stderr, "tradeoff: -shards must be 2 or more")
		os.Exit(2)
	} else if *shardWorker >= 0 {
		fmt.Fprintln(os.Stderr, "tradeoff: -shard-worker is internal and requires -shards")
		os.Exit(2)
	}
	if *shards > 1 && *shardWorker >= *shards {
		fmt.Fprintf(os.Stderr, "tradeoff: -shard-worker %d out of range for %d shards\n", *shardWorker, *shards)
		os.Exit(2)
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

	if *shards > 1 && *shardWorker < 0 {
		// Sharded parent: fork the workers, wait, merge their journals
		// into -checkpoint, then fall through to the ordinary campaign
		// path with -resume — it loads every merged result (re-running
		// only traces a failed shard left behind) and renders as usual.
		if err := runShardParent(*shards, *checkpoint, *resume); err != nil {
			fmt.Fprintln(os.Stderr, "tradeoff:", err)
			exit(1)
		}
		*resume = true
	}

	// A shard worker journals to its private shard journal, not the
	// merged campaign checkpoint.
	ckptPath := *checkpoint
	if *shardWorker >= 0 {
		ckptPath = core.ShardJournalPath(*checkpoint, *shardWorker, *shards)
	}

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
		if *shardWorker >= 0 {
			lo, hi := core.ShardRange(len(suite), *shardWorker, *shards)
			suite = suite[lo:hi]
			fmt.Printf("running manifest range [%d,%d) (%d traces) with %d workers...\n", lo, hi, len(suite), *workers)
		} else {
			fmt.Printf("running %d traces with %d workers...\n", len(suite), *workers)
		}
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

		// One cache directory serves every process of the campaign: shard
		// workers inherit -trace-cache through the forwarded command line
		// and publish disjoint manifest ranges into the same dir, so the
		// parent's post-merge resume pass and any later run hit warm.
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
			Policy:         core.FailurePolicy{KeepGoing: *keepGoing, MaxRetries: *retries},
			Run:            core.RunOptions{Timeout: *timeout, MaxEvents: *maxEvents},
			Schemes:        scheme.ParseList(*schemes),
			CheckpointPath: ckptPath,
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
		if *shardWorker >= 0 {
			// A shard worker's job ends with its journal complete —
			// possibly with zero records when the manifest slice is
			// smaller than the shard count. Rendering (and the
			// no-survivor guard below) is the parent's business after
			// the merge.
			exit(0)
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
