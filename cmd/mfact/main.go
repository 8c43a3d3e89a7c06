// Command mfact models an MPI trace with the MFACT modeling tool: one
// logical-clock replay predicts application performance across a sweep
// of network configurations and classifies the application.
//
// Usage:
//
//	mfact trace.htrc              # model a trace file
//	mfact -app FT -ranks 64       # generate and model a synthetic trace
//	mfact -schemes mfact,packet -app FT -ranks 64
//	                              # compare registry schemes on one trace
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/mfact"
	"hpctradeoff/internal/scheme"
	"hpctradeoff/internal/trace"
	"hpctradeoff/internal/workload"
)

func main() {
	app := flag.String("app", "", "generate a synthetic trace for this app")
	class := flag.String("class", "B", "problem class for -app")
	ranks := flag.Int("ranks", 64, "rank count for -app")
	machName := flag.String("machine", "edison", "target machine")
	seed := flag.Int64("seed", 1, "seed for -app")
	grid := flag.Bool("grid", false, "print a 2-D bandwidth × latency what-if grid")
	schemes := flag.String("schemes", "", "run these registered schemes over the trace and compare "+
		"(comma-separated; available: "+strings.Join(scheme.Names(), ",")+")")
	flag.Parse()

	tr, err := loadOrGenerate(*app, *class, *ranks, *machName, *seed, flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mfact:", err)
		os.Exit(1)
	}
	mach, err := machine.New(tr.Meta.Machine, tr.Meta.NumRanks, tr.Meta.RanksPerNode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mfact:", err)
		os.Exit(1)
	}

	if *schemes != "" {
		if err := runSchemes(tr, mach, *schemes); err != nil {
			fmt.Fprintln(os.Stderr, "mfact:", err)
			os.Exit(1)
		}
		return
	}

	start := time.Now()
	res, err := mfact.Model(tr, mach, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mfact:", err)
		os.Exit(1)
	}
	wall := time.Since(start)

	fmt.Printf("trace       %s (%d ranks, %d events)\n", tr.Meta.ID(), tr.Meta.NumRanks, tr.NumEvents())
	fmt.Printf("machine     %s (α=%v, β=%.3g GB/s)\n", mach.Name, mach.Alpha, mach.Beta/1e9)
	fmt.Printf("modeled in  %v (%d events replayed once for %d configurations)\n",
		wall.Round(time.Microsecond), res.Events, len(res.Configs))
	fmt.Printf("\npredicted total time  %v\n", res.Total())
	fmt.Printf("predicted comm time   %v\n", res.Comm())
	if m := tr.MeasuredTotal(); m > 0 {
		fmt.Printf("measured total time   %v (prediction/measured = %.3f)\n",
			m, float64(res.Total())/float64(m))
	}
	fmt.Printf("\nclassification        %v\n", res.Class)
	fmt.Printf("bandwidth sensitivity %+.1f%% (total time under β/8)\n", 100*res.BandwidthSensitivity())
	fmt.Printf("latency sensitivity   %+.1f%% (total time under 8α)\n", 100*res.LatencySensitivity())
	fmt.Printf("wait fraction         %.1f%%\n", 100*res.WaitFraction())
	fmt.Printf("needs simulation?     %v (communication-sensitive: %v)\n\n",
		res.CommSensitive(), res.CommSensitive())

	fmt.Println("configuration sweep:")
	fmt.Printf("  %-22s %-14s %-14s\n", "config", "total", "comm")
	for k, c := range res.Configs {
		label := fmt.Sprintf("bw×%g lat×%g", c.BWScale, c.LatScale)
		fmt.Printf("  %-22s %-14v %-14v\n", label, res.Totals[k], res.Comms[k])
	}
	c := res.PerConfig[0]
	fmt.Printf("\nbaseline counters (per rank): wait=%v bandwidth=%v latency=%v compute=%v\n",
		c.Wait, c.Bandwidth, c.Latency, c.Compute)

	if *grid {
		g, err := mfact.GridSweep(tr, mach, nil, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mfact:", err)
			os.Exit(1)
		}
		fmt.Println()
		fmt.Print(g.Render())
	}
}

// runSchemes replays the trace through each selected registry scheme
// and prints a side-by-side comparison.
func runSchemes(tr *trace.Trace, mach *machine.Config, list string) error {
	ss, err := scheme.Resolve(scheme.ParseList(list))
	if err != nil {
		return err
	}
	fmt.Printf("trace   %s (%d ranks, %d events)\n\n", tr.Meta.ID(), tr.Meta.NumRanks, tr.NumEvents())
	fmt.Printf("%-12s %-11s %-14s %-14s %-12s %s\n", "scheme", "kind", "total", "comm", "events", "wall")
	for _, s := range ss {
		out, err := s.Run(tr, mach, scheme.Options{})
		if err != nil {
			fmt.Printf("%-12s %-11s failed: %v\n", s.Name(), s.Kind(), err)
			continue
		}
		fmt.Printf("%-12s %-11s %-14v %-14v %-12d %v\n",
			out.Scheme, out.Kind, out.Total, out.Comm, out.Events, out.Wall.Round(time.Microsecond))
	}
	return nil
}

func loadOrGenerate(app, class string, ranks int, machName string, seed int64, path string) (*trace.Trace, error) {
	if app != "" {
		return workload.Materialize(workload.Params{
			App: app, Class: class, Ranks: ranks, Machine: machName, Seed: seed,
		})
	}
	if path == "" {
		return nil, fmt.Errorf("need a trace file argument or -app")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}
