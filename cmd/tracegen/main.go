// Command tracegen generates the study's synthetic DUMPI-like traces
// (program structure plus ground-truth "measured" timestamps) and
// writes them to disk in the binary trace format (codec v3), one file
// per manifest entry named <app>.<class>.x<ranks>.<machine>.<hash>.htrc,
// where <hash> abbreviates the entry's trace-cache address and so
// tells apart entries that differ only in seed, iterations or noise. With -warm it
// instead pre-populates a trace-cache directory — every trace with its
// lowered replay program — so later campaigns run entirely on verified
// mmap hits and never lower a trace.
//
// Usage:
//
//	tracegen -out traces/ [-stride N] [-maxranks N] [-app NAME -class C -ranks N -machine M]
//	tracegen -warm CACHEDIR [-stride N] [-maxranks N] [-app NAME ...]
//	tracegen -spec specs/variability.yaml -warm CACHEDIR
//	                                  # materialize a campaign spec's manifest
//	tracegen -workload-spec prog.json # one trace from a custom JSON workload
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/spec"
	"hpctradeoff/internal/trace"
	"hpctradeoff/internal/tracecache"
	"hpctradeoff/internal/workload"
)

func main() {
	out := flag.String("out", "traces", "output directory")
	warm := flag.String("warm", "", "pre-populate this trace-cache directory instead of writing .htrc files")
	stride := flag.Int("stride", 1, "keep every Nth manifest entry")
	maxRanks := flag.Int("maxranks", 0, "skip traces larger than this (0 = no cap)")
	app := flag.String("app", "", "generate a single trace for this app instead of the manifest")
	campaignSpec := flag.String("spec", "", "materialize the manifest of this YAML/JSON campaign spec instead of the built-in suite")
	specPath := flag.String("workload-spec", "", "generate a single trace from a custom JSON workload spec instead of the manifest")
	class := flag.String("class", "B", "problem class for -app")
	ranks := flag.Int("ranks", 64, "rank count for -app")
	mach := flag.String("machine", "edison", "machine for -app")
	seed := flag.Int64("seed", 1, "seed for -app")
	flag.Parse()

	if *warm != "" && *specPath != "" {
		// Cache keys derive from workload.Params alone; a custom
		// workload-spec trace has no stable key, so warming it would
		// poison lookups. (Campaign specs compile to ordinary Params
		// with stable keys, so -spec -warm composes fine.)
		fmt.Fprintln(os.Stderr, "tracegen: -warm cannot be combined with -workload-spec")
		os.Exit(2)
	}
	if *campaignSpec != "" && (*specPath != "" || *app != "") {
		fmt.Fprintln(os.Stderr, "tracegen: -spec selects a whole manifest; it cannot be combined with -app or -workload-spec")
		os.Exit(2)
	}
	if *warm == "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *specPath != "" {
		f, err := os.Open(*specPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		spec, err := workload.ReadSpec(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		p := workload.Params{App: spec.Name, Class: *class, Ranks: *ranks, Machine: *mach, Seed: *seed}
		tr, err := workload.MaterializeSpec(spec, p)
		if err == nil {
			err = writeTrace(*out, p, tr, 1, 1)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		return
	}

	var suite []workload.Params
	switch {
	case *app != "":
		suite = []workload.Params{{App: *app, Class: *class, Ranks: *ranks, Machine: *mach, Seed: *seed}}
	case *campaignSpec != "":
		s, err := spec.Load(*campaignSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		c, err := spec.Compile(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		suite = workload.Filter(c.Manifest, *stride, *maxRanks)
		fmt.Printf("campaign spec %s: %d traces compiled (%s)\n", *campaignSpec, len(c.Manifest), c.Hash())
	default:
		suite = workload.SuiteSmall(*stride, *maxRanks)
	}
	if *warm != "" {
		warmCache(*warm, suite)
		return
	}
	for i, p := range suite {
		tr, err := workload.MaterializeColumns(p)
		if err == nil {
			err = writeTrace(*out, p, tr, i+1, len(suite))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			os.Exit(1)
		}
	}
}

// warmCache acquires every suite trace and its replay program through
// the cache so later campaigns start warm. Already-cached traces are
// verified hits and cost no generation (a missing or stale program is
// lowered again); corrupt ones are evicted and regenerated by the
// acquire itself.
func warmCache(dir string, suite []workload.Params) {
	c, err := tracecache.Open(dir, tracecache.Options{
		Warnf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "tracegen: "+format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
	for i, p := range suite {
		p := p
		cols, _, release, hit, err := c.AcquireProgram(p, func() (*trace.Columns, *mpisim.Program, error) {
			return workload.MaterializeReplay(p, workload.Limits{})
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			os.Exit(1)
		}
		state := "generated"
		if hit {
			state = "cached"
		}
		fmt.Printf("[%3d/%3d] %-9s %s  %s events=%d\n",
			i+1, len(suite), state, tracecache.Hash(p), tracecache.Key(p), cols.NumEvents())
		release()
	}
	st := c.Stats()
	fmt.Printf("warm: %s\n", st.String())
}

// traceFileName names p's trace file. Meta.ID alone leaves out seed,
// iterations, placement and noise, so manifests that sweep those would
// collide; the short cache hash folds every Params field.
func traceFileName(p workload.Params) string {
	return fmt.Sprintf("%s.%s.x%d.%s.%s.htrc", p.App, p.Class, p.Ranks, p.Machine, tracecache.Hash(p)[:8])
}

// writeTrace writes tr, the stamped trace of p, into dir. It refuses
// to overwrite an existing file, so a name collision fails loudly.
func writeTrace(dir string, p workload.Params, tr *trace.Columns, i, total int) error {
	name := traceFileName(p)
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if err := trace.WriteColumnsV3(f, tr); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("[%3d/%3d] %-42s ranks=%-5d events=%-8d measured=%v comm=%.0f%%\n",
		i, total, name, tr.Meta.NumRanks, tr.NumEvents(),
		trace.SourceMeasuredTotal(tr), 100*trace.SourceCommFraction(tr))
	return nil
}
