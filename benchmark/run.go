package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"hpctradeoff/internal/simnet"
)

// minReps is the fewest campaigns a measured run times, however short
// -seconds is, so that a median exists.
const minReps = 3

// keepGoing reports whether a loop that has run for elapsed and whose
// last iteration took last should start another to measure for about
// the budget (it rounds to the nearest whole iteration).
func keepGoing(elapsed, last, budget time.Duration) bool {
	return elapsed+last/2 < budget
}

// e2eRun is the measured, untraced runs of one workload: closed loop,
// one campaign at a time, each a fresh `tradeoff` process.
type e2eRun struct {
	// samples holds one value per campaign (per set-up for setup_s) of
	// every timing metric.
	samples map[string][]float64
	// check is the first campaign's content; the gate holds every other
	// campaign of the run to it.
	check             *checked
	fullShare         float64
	attempted, failed int
	spins             spinPair
}

// value is the run's figure for an end-to-end metric: the median of
// the timing samples, or the exact accuracy.
func (r *e2eRun) value(d metricDef) float64 {
	if d.exact {
		return r.check.errPct[strings.TrimSuffix(d.name, "_err_pct")]
	}
	return median(r.samples[d.name])
}

// measure sets the workload up and runs its campaign repeatedly for
// about the given time.
func (h *harness) measure(w workload, seed int64, budget time.Duration) (*e2eRun, error) {
	p, err := h.prepare(w, seed, setupReps)
	if err != nil {
		return nil, err
	}
	r := &e2eRun{samples: map[string][]float64{"setup_s": p.setupS}}
	start, last := time.Now(), time.Duration(0)
	for rep := 0; rep < minReps || keepGoing(time.Since(start), last, budget); rep++ {
		t := time.Now()
		run, err := h.campaign(p, 0)
		if err != nil {
			return nil, err
		}
		last = time.Since(t)
		if r.check == nil {
			r.check, r.fullShare = run.check, run.fullShare
		} else if err := r.check.sameAs(run.check, "two repetitions of "+w.name); err != nil {
			return nil, err
		} else if run.fullShare != r.fullShare {
			return nil, fmt.Errorf("benchmark: correctness gate: %s escalated %v of its traces, then %v", w.name, r.fullShare, run.fullShare)
		}
		r.samples["campaign_wall_s"] = append(r.samples["campaign_wall_s"], run.wallS)
		r.samples["cpu_s"] = append(r.samples["cpu_s"], run.cpuS)
		r.samples["peak_rss_mb"] = append(r.samples["peak_rss_mb"], run.rssMB)
		r.attempted += run.check.attempted
		r.failed += run.check.failed
	}
	// Linux folds the parent's peak RSS into a child's ru_maxrss at exec,
	// so a child smaller than this process would read as this process.
	// (A -smoke child is that small, and its memory is not a result.)
	if own := ownPeakRSSMB(); !w.tiny && own >= slices.Min(r.samples["peak_rss_mb"]) {
		return nil, fmt.Errorf("benchmark: peak_rss_mb of %s is unmeasurable: the harness itself peaked at %.1f MB, not below the program's %.1f MB",
			w.name, own, slices.Min(r.samples["peak_rss_mb"]))
	}
	r.spins = closeSpins(p.spinMS)
	return r, nil
}

// tracedRun is the separate traced run of one workload.
type tracedRun struct {
	metrics map[string]float64
	check   *checked
	spins   spinPair
}

// measureTraced produces the per-layer metrics: one real campaign for
// reference (and one with two workers for the pool speed-up), then the
// in-process layered walk alternately with tracing off and on for
// about the given time. Every walk must reproduce the real campaign's
// results exactly. Time metrics are medians over the traced walks. The
// last traced walk's spans are written to outDir.
func (h *harness) measureTraced(w workload, seed int64, budget time.Duration, outDir string) (*tracedRun, error) {
	p, err := h.prepare(w, seed, 1)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	child, err := h.campaign(p, 0)
	if err != nil {
		return nil, err
	}
	child2, err := h.campaign(p, 2)
	if err != nil {
		return nil, err
	}
	if err := child.check.sameAs(child2.check, "one and two workers on "+w.name); err != nil {
		return nil, err
	}

	var plainWalls, tracedWalls []float64
	var perWalk []map[string]float64
	var spans []span
	walkOnce := func(rec *recorder) error {
		dir, cache, err := p.runDir()
		if err != nil {
			return err
		}
		out, err := walk(rec, p.specPath, dir, cache)
		if err != nil {
			return err
		}
		got, err := check(out.results, w.traces())
		if err != nil {
			return fmt.Errorf("benchmark: layered walk of %s: %w", w.name, err)
		}
		if err := child.check.sameAs(got, "tradeoff and the layered walk on "+w.name); err != nil {
			return err
		}
		if out.fullShare != child.fullShare {
			return fmt.Errorf("benchmark: correctness gate: tradeoff escalated %v of %s, the layered walk %v", child.fullShare, w.name, out.fullShare)
		}
		if rec == nil {
			plainWalls = append(plainWalls, out.wall.Seconds())
			return nil
		}
		tracedWalls = append(tracedWalls, out.wall.Seconds())
		perWalk = append(perWalk, layerMetrics(rec, out))
		spans = rec.spans
		return nil
	}
	last := time.Duration(0)
	for pair := 0; pair < 2 || keepGoing(time.Since(start), last, budget); pair++ {
		t := time.Now()
		// Alternate which side goes first so neither always runs on the
		// warmer page cache.
		for side := 0; side < 2; side++ {
			var rec *recorder
			if side != pair%2 {
				rec = newRecorder()
			}
			if err := walkOnce(rec); err != nil {
				return nil, err
			}
		}
		last = time.Since(t)
	}

	m := map[string]float64{}
	for _, d := range perLayer {
		var xs []float64
		for _, one := range perWalk {
			if v, ok := one[d.name]; ok {
				xs = append(xs, v)
			}
		}
		m[d.name] = median(xs)
	}
	for _, model := range simnet.Models() {
		ns, err := netProbe(model, w.ranks, w.alltoall)
		if err != nil {
			return nil, err
		}
		m["simnet."+string(model)+".ns_per_event"] = ns
	}
	m["des.engine.ns_per_event"] = engineProbe()
	m["triage.escalated_share"] = child.fullShare
	m["core.pool_speedup_w2"] = child.wallS / child2.wallS
	m["harness.build_s"] = h.buildS
	m["harness.trace_overhead_pct"] = 100 * (median(tracedWalls)/median(plainWalls) - 1)
	m["harness.walk_vs_child_pct"] = 100 * (median(plainWalls)/child.wallS - 1)
	spins := closeSpins(p.spinMS)
	m["harness.spin_ms"] = spins.median()

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed)), spans); err != nil {
		return nil, err
	}
	return &tracedRun{metrics: m, check: child.check, spins: spins}, nil
}
