// Command benchmark is the study's benchmark: it drives cmd/tradeoff
// the way a user does over four named workloads, reports the cold and
// warm campaign wall, CPU, memory, set-up time and per-scheme accuracy,
// and — in a separate traced run — walks the same campaign layer by
// layer to say where the time goes. See README.md beside this file.
//
// Usage:
//
//	go run ./benchmark                        # every workload, both runs; writes benchmark/out/report.json
//	go run ./benchmark -o A.json              # the same, report written to A.json
//	go run ./benchmark -compare A.json B.json # hold two reports to the bounds
//	go run ./benchmark -workload p2p_cold -seed 3 -seconds 20 -trace 0
//	                                          # one measured run; last stdout line is the result JSON
//	go run ./benchmark -workload p2p_cold -seed 3 -seconds 20 -trace 1
//	                                          # one traced run; per-layer metrics
//	go run ./benchmark -smoke                 # two tiny traces per workload, for tests
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"text/tabwriter"
	"time"
)

// buildDir holds everything the benchmark builds or scratches, outDir
// what it keeps (span files, reports); both are relative to the module
// root the benchmark is run from, and both are git-ignored.
const (
	buildDir = ".bench_build"
	outDir   = "benchmark/out"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: all of them, untraced then traced)")
		seed    = flag.Int64("seed", 1, "workload seed: the trace seeds of the emitted campaign spec derive from it")
		seconds = flag.Float64("seconds", 20, "how long one run measures")
		traced  = flag.Int("trace", 0, "with -workload: 0 = measured end-to-end run, 1 = traced per-layer run")
		smoke   = flag.Bool("smoke", false, "shrink every workload to two 16-rank traces")
		out     = flag.String("o", filepath.Join(outDir, "report.json"), "where the all-workloads run writes its report")
		compare = flag.Bool("compare", false, "compare two reports: -compare A.json B.json")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced, *smoke, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced int, smoke bool, out string, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("benchmark: -compare takes two report files")
		}
		return compareReports(os.Stdout, args[0], args[1])
	}
	budget := time.Duration(seconds * float64(time.Second))
	hi := hostInfo()
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s %s/%s load1=%.2f\n",
		hi.NumCPU, hi.GoMaxProcs, hi.GoVersion, hi.GOOS, hi.GOARCH, hi.Load1)

	h, err := newHarness(".", buildDir)
	if err != nil {
		return err
	}
	defer h.close()
	fmt.Printf("harness.build_s %.3f s\n", h.buildS)

	ws := append([]workload(nil), workloads...)
	if smoke {
		for i := range ws {
			ws[i] = ws[i].smoke()
		}
	}
	if name != "" {
		for _, w := range ws {
			if w.name == name {
				return runOne(h, w, seed, budget, traced)
			}
		}
		return fmt.Errorf("benchmark: unknown workload %q", name)
	}

	// Every measured run comes before the first traced one: the traced
	// walk runs the campaign inside this process, and a child's reported
	// peak RSS is never below its parent's.
	rep := &report{Host: hi, Seed: seed, Seconds: seconds, Smoke: smoke}
	e2e := map[string]*e2eRun{}
	for _, w := range ws {
		r, err := h.measure(w, seed, budget)
		if err != nil {
			return err
		}
		e2e[w.name] = r
	}
	if err := e2e["p2p_cold"].check.sameAs(e2e["p2p_warm"].check, "p2p_cold and p2p_warm"); err != nil {
		return err
	}
	for _, w := range ws {
		tr, err := h.measureTraced(w, seed, budget, outDir)
		if err != nil {
			return err
		}
		if err := e2e[w.name].check.sameAs(tr.check, "the measured and the traced run of "+w.name); err != nil {
			return err
		}
		rep.Workloads = append(rep.Workloads, newWorkloadReport(w, e2e[w.name], tr))
	}
	rep.print(os.Stdout)
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nreport written to %s\n", out)
	return nil
}

// result is the one JSON object a single-workload run ends its
// standard output with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is the driver's entry: one workload, one seed, one run.
func runOne(h *harness, w workload, seed int64, budget time.Duration, traced int) error {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	var spins spinPair
	switch traced {
	case 0:
		r, err := h.measure(w, seed, budget)
		if err != nil {
			return err
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{r.value(d), d.unit}
		}
		res.Attempted, res.Failed, spins = r.attempted, r.failed, r.spins
		fmt.Printf("%s seed %d: %d campaigns, results digest %s\n", w.name, seed, len(r.samples["campaign_wall_s"]), r.check.digest())
	case 1:
		r, err := h.measureTraced(w, seed, budget, outDir)
		if err != nil {
			return err
		}
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{r.metrics[d.name], d.unit}
		}
		res.Attempted, res.Failed, spins = r.check.attempted, r.check.failed, r.spins
		fmt.Printf("%s seed %d: traced, results digest %s\n", w.name, seed, r.check.digest())
	default:
		return fmt.Errorf("benchmark: -trace must be 0 or 1")
	}
	fmt.Printf("harness.spin_ms %v\n", spins)
	if spins.noisy() {
		fmt.Println("noisy_host: the calibration spins before and after this workload differ by more than 10 %")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// host is the evidence recorded with every run that its numbers came
// from a quiet, known machine.
type host struct {
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Load1      float64 `json:"load1"`
}

func hostInfo() host {
	h := host{NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscan(string(data), &h.Load1)
	}
	return h
}

// report is what an all-workloads run writes and -compare reads.
type report struct {
	Host      host             `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Smoke     bool             `json:"smoke,omitempty"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string `json:"name"`
	Digest    string `json:"digest"`
	NoisyHost bool   `json:"noisy_host,omitempty"`
	// SpinMS is the median calibration spin around the measured run.
	SpinMS    float64            `json:"spin_ms"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]series  `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
}

// series summarizes one end-to-end metric's samples.
type series struct {
	Unit    string    `json:"unit"`
	N       int       `json:"n"`
	Min     float64   `json:"min"`
	Q1      float64   `json:"q1"`
	Median  float64   `json:"median"`
	Q3      float64   `json:"q3"`
	Max     float64   `json:"max"`
	Samples []float64 `json:"samples"`
}

func newSeries(unit string, xs []float64) series {
	s := series{Unit: unit, N: len(xs), Median: median(xs), Samples: xs, Min: xs[0], Max: xs[0]}
	s.Q1, s.Q3 = quartiles(xs)
	for _, x := range xs {
		s.Min, s.Max = min(s.Min, x), max(s.Max, x)
	}
	return s
}

func newWorkloadReport(w workload, e2e *e2eRun, tr *tracedRun) workloadReport {
	wr := workloadReport{
		Name: w.name, Digest: e2e.check.digest(), NoisyHost: e2e.spins.noisy() || tr.spins.noisy(),
		SpinMS:    e2e.spins.median(),
		Attempted: e2e.attempted, Failed: e2e.failed,
		EndToEnd: map[string]series{}, PerLayer: tr.metrics,
	}
	for _, d := range endToEnd {
		if d.exact {
			wr.EndToEnd[d.name] = newSeries(d.unit, []float64{e2e.value(d)})
		} else {
			wr.EndToEnd[d.name] = newSeries(d.unit, e2e.samples[d.name])
		}
	}
	wr.EndToEnd[failedShare.name] = newSeries(failedShare.unit, []float64{float64(e2e.failed) / float64(e2e.attempted)})
	return wr
}

func (r *report) print(out io.Writer) {
	for _, w := range r.Workloads {
		label := ""
		if w.NoisyHost {
			label = "  [noisy_host]"
		}
		fmt.Fprintf(out, "\n== %s  digest %s  failed %d of %d  spin %.1f ms%s\n", w.Name, w.Digest, w.Failed, w.Attempted, w.SpinMS, label)
		tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "end-to-end\tmedian\tmin\tq1\tq3\tn\tunit")
		for _, d := range append(append([]metricDef(nil), endToEnd...), failedShare) {
			s := w.EndToEnd[d.name]
			fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%.4f\t%.4f\t%d\t%s\n", d.name, s.Median, s.Min, s.Q1, s.Q3, s.N, s.Unit)
		}
		fmt.Fprintln(tw, "per-layer\tvalue\t\t\t\t\tunit")
		for _, d := range perLayer {
			fmt.Fprintf(tw, "%s\t%.6g\t\t\t\t\t%s\n", d.name, w.PerLayer[d.name], d.unit)
		}
		tw.Flush()
	}
}
