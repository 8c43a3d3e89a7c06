// Command mfact models an MPI trace with the MFACT modeling tool: one
// logical-clock replay predicts application performance across a sweep
// of network configurations and classifies the application. It also
// runs any registered scheme, simulators included, over the same trace,
// and fits MFACT's Hockney (α, β) for a machine from simulated
// ping-pongs.
//
// Usage:
//
//	mfact trace.htrc              # model a trace file
//	mfact -app FT -ranks 64       # generate and model a synthetic trace
//	mfact -schemes mfact,packet -app FT -ranks 64
//	                              # compare registry schemes on one trace
//	mfact -calibrate -machine edison -ranks 48
//	                              # fit (α, β) on the packet-flow simulator
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
	"hpctradeoff/internal/simnet"
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
	calibrate := flag.Bool("calibrate", false, "fit (α, β) for -machine at -ranks from packet-flow ping-pongs and exit")
	flag.Parse()

	if *calibrate {
		if err := runCalibrate(*machName, *ranks); err != nil {
			fmt.Fprintln(os.Stderr, "mfact:", err)
			os.Exit(1)
		}
		return
	}

	tr, closeTrace, err := loadOrGenerate(*app, *class, *ranks, *machName, *seed, flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mfact:", err)
		os.Exit(1)
	}
	defer closeTrace()
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
	if m := trace.SourceMeasuredTotal(tr); m > 0 {
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
// and prints a side-by-side comparison (the paper's Table II shape for
// a single trace). A trace that carries measured times gains a
// prediction/measured column.
func runSchemes(tr *trace.Columns, mach *machine.Config, list string) error {
	ss, err := scheme.Resolve(scheme.ParseList(list))
	if err != nil {
		return err
	}
	measured := trace.SourceMeasuredTotal(tr)
	ratioHead := ""
	if measured > 0 {
		ratioHead = fmt.Sprintf("%-10s ", "pred/meas")
	}
	fmt.Printf("trace   %s (%d ranks, %d events)\n\n", tr.Meta.ID(), tr.Meta.NumRanks, tr.NumEvents())
	fmt.Printf("%-12s %-11s %-14s %-14s %-12s %swall\n", "scheme", "kind", "total", "comm", "events", ratioHead)
	for _, s := range ss {
		out, err := s.Run(tr, mach, scheme.Options{})
		if err != nil {
			fmt.Printf("%-12s %-11s failed: %v\n", s.Name(), s.Kind(), err)
			continue
		}
		ratio := ""
		if measured > 0 {
			ratio = fmt.Sprintf("%-10.3f ", float64(out.Total)/float64(measured))
		}
		fmt.Printf("%-12s %-11s %-14v %-14v %-12d %s%v\n",
			out.Scheme, out.Kind, out.Total, out.Comm, out.Events, ratio, out.Wall.Round(time.Microsecond))
	}
	return nil
}

// runCalibrate fits Hockney (α, β) for a machine by timing ping-pongs
// on the packet-flow simulator — the way MFACT's parameters are
// obtained on real systems — and compares them with the configured
// data-sheet values.
func runCalibrate(machName string, ranks int) error {
	mach, err := machine.New(machName, ranks, 0)
	if err != nil {
		return err
	}
	cal, err := mfact.Calibrate(mach, simnet.PacketFlow, nil)
	if err != nil {
		return err
	}
	fmt.Printf("machine %s (%s), measured with the %s model:\n\n", mach.Name, mach.Topo.Name(), simnet.PacketFlow)
	fmt.Printf("  %-12s %-14s\n", "bytes", "one-way time")
	for _, s := range cal.Samples {
		fmt.Printf("  %-12d %-14v\n", s.Bytes, s.OneWay)
	}
	fmt.Printf("\n  fitted α  %v   (configured %v)\n", cal.Alpha, mach.Alpha)
	fmt.Printf("  fitted β  %.3g GB/s (configured %.3g GB/s)\n", cal.Beta/1e9, mach.Beta/1e9)
	fmt.Println("\nUse Calibration.Apply to model with the fitted parameters.")
	return nil
}

// loadOrGenerate materializes -app's trace, or opens and validates the
// trace file at path; the returned func releases the file mapping.
func loadOrGenerate(app, class string, ranks int, machName string, seed int64, path string) (*trace.Columns, func() error, error) {
	if app != "" {
		tr, err := workload.MaterializeColumns(workload.Params{
			App: app, Class: class, Ranks: ranks, Machine: machName, Seed: seed,
		})
		return tr, func() error { return nil }, err
	}
	if path == "" {
		return nil, nil, fmt.Errorf("need a trace file argument or -app")
	}
	m, err := trace.OpenMapped(path)
	if err != nil {
		return nil, nil, err
	}
	if err := m.Validate(); err != nil {
		m.Close()
		return nil, nil, err
	}
	return m.Columns, m.Close, nil
}
