// Command traceinfo inspects a trace file: metadata, event and
// operation counts, measured times, and the Table III feature vector.
// With -cache it instead lists a trace-cache directory: each entry's
// key, codec and workload-schema versions, size, and last use, and its
// replay program's lowering version and size, marking programs the next
// hit would lower again.
//
// Usage:
//
//	traceinfo trace.htrc [more.htrc ...]
//	traceinfo -cache DIR
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"hpctradeoff/internal/features"
	"hpctradeoff/internal/trace"
	"hpctradeoff/internal/tracecache"
	"hpctradeoff/internal/workload"
)

func main() {
	verbose := flag.Bool("v", false, "print the full Table III feature vector")
	cacheDir := flag.String("cache", "", "list this trace-cache directory instead of reading trace files")
	flag.Parse()
	if *cacheDir != "" {
		if err := describeCache(*cacheDir); err != nil {
			fmt.Fprintf(os.Stderr, "traceinfo: %s: %v\n", *cacheDir, err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: traceinfo [-v] trace.htrc ... | traceinfo -cache DIR")
		os.Exit(2)
	}
	for _, path := range flag.Args() {
		if err := describe(path, *verbose); err != nil {
			fmt.Fprintf(os.Stderr, "traceinfo: %s: %v\n", path, err)
			os.Exit(1)
		}
	}
}

// describeCache lists every entry of a trace-cache directory, including
// ones a current binary would refuse to serve (stale versions, corrupt
// sidecars) — the point of the listing is seeing what is on disk, not
// what would hit.
func describeCache(dir string) error {
	c, err := tracecache.Open(dir, tracecache.Options{})
	if err != nil {
		return err
	}
	entries, err := c.List()
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d entries\n", dir, len(entries))
	var total int64
	for _, e := range entries {
		if e.Err != nil {
			fmt.Printf("  %s  UNREADABLE: %v\n", e.Hash, e.Err)
			continue
		}
		stale := ""
		if e.Codec != trace.VersionV3 || e.WorkloadSchema != workload.SchemaVersion {
			stale = "  STALE (will regenerate)"
		}
		fmt.Printf("  %s  codec=v%d schema=%d  %8.2f MB  last use %s  %s%s\n",
			e.Hash, e.Codec, e.WorkloadSchema, float64(e.Bytes)/1e6,
			e.LastUse.Format("2006-01-02 15:04:05"), e.Key, stale)
		fmt.Printf("    program  %s\n", describeProgram(e))
		total += e.Bytes
	}
	fmt.Printf("  total %.2f MB\n", float64(total)/1e6)
	return nil
}

// describeProgram says what the next hit on e does with its stored
// replay program: map it, or lower the trace again and why.
func describeProgram(e tracecache.Entry) string {
	switch {
	case e.ProgramErr == nil:
		return fmt.Sprintf("lowering=v%d %.2f MB", e.ProgramVersion, float64(e.ProgramBytes)/1e6)
	case os.IsNotExist(e.ProgramErr):
		return "none (the next hit lowers and stores one)"
	case errors.Is(e.ProgramErr, tracecache.ErrCorrupt):
		return fmt.Sprintf("%.2f MB  DAMAGED (will re-lower): %v", float64(e.ProgramBytes)/1e6, e.ProgramErr)
	default:
		return fmt.Sprintf("lowering=v%d %.2f MB  STALE (will re-lower): %v",
			e.ProgramVersion, float64(e.ProgramBytes)/1e6, e.ProgramErr)
	}
}

func describe(path string, verbose bool) error {
	version, err := trace.FileVersion(path)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cols, err := trace.ReadColumns(f)
	if err != nil {
		return err
	}
	if err := cols.Validate(); err != nil {
		return fmt.Errorf("invalid trace: %w", err)
	}
	tr := cols.Materialize()

	fmt.Printf("%s\n", path)
	fmt.Printf("  codec         v%d", version)
	if version == 3 {
		fmt.Printf(" (zero-copy mappable)")
	}
	fmt.Println()
	fmt.Printf("  id            %s\n", tr.Meta.ID())
	fmt.Printf("  ranks         %d (%d per node)\n", tr.Meta.NumRanks, tr.Meta.RanksPerNode)
	fmt.Printf("  machine       %s\n", tr.Meta.Machine)
	fmt.Printf("  seed          %d\n", tr.Meta.Seed)
	fmt.Printf("  capabilities  commSplit=%v threadMultiple=%v\n",
		tr.Meta.UsesCommSplit, tr.Meta.UsesThreadMultiple)
	fmt.Printf("  communicators %d\n", tr.Comms.Len())
	fmt.Printf("  events        %d\n", tr.NumEvents())
	fmt.Printf("  measured      total %v, comm %v (%.1f%%)\n",
		tr.MeasuredTotal(), tr.MeasuredComm(), 100*tr.CommFraction())
	colBytes, aosBytes := cols.FootprintBytes(), trace.AoSFootprintBytes(tr)
	fmt.Printf("  resident est  columnar %.2f MB, array-of-structs %.2f MB (%.0f%%)\n",
		float64(colBytes)/1e6, float64(aosBytes)/1e6, 100*float64(colBytes)/float64(max(aosBytes, 1)))
	// A v3 file maps in as-is, so its on-disk size IS the mapped
	// resident estimate (file-backed, reclaimable, shared across
	// processes mapping the same trace).
	fmt.Printf("  v3 mapped est %.2f MB file-backed (%.0f%% of columnar heap)\n",
		float64(trace.V3Size(cols))/1e6, 100*float64(trace.V3Size(cols))/float64(max(colBytes, 1)))

	counts := map[trace.Op]int{}
	var bytes int64
	for _, evs := range tr.Ranks {
		for i := range evs {
			counts[evs[i].Op]++
			nMembers := 0
			if evs[i].Op.IsCollective() {
				nMembers = tr.Comms.Size(evs[i].Comm)
			}
			bytes += evs[i].TotalSendBytes(nMembers)
		}
	}
	fmt.Printf("  bytes sent    %.2f MB\n", float64(bytes)/1e6)
	fmt.Printf("  operations   ")
	for op := trace.Op(0); int(op) < 32; op++ {
		if c := counts[op]; c > 0 {
			fmt.Printf(" %s=%d", op, c)
		}
	}
	fmt.Println()

	if verbose {
		fmt.Println("  features (Table III, MFACT classification omitted):")
		v := features.Extract(tr, nil)
		names := features.Names()
		for i, n := range names {
			fmt.Printf("    %-8s %.6g\n", n, v[i])
		}
	}
	return nil
}
