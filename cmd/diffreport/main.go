// Command diffreport lists per-trace modeling-vs-simulation
// discrepancies from a saved study run: the largest DIFFtotal values,
// and the traces that straddle the 2% need-for-simulation threshold on
// the wrong side of the naive classification (the cases the paper's
// Section VI-B4 discussion attributes misclassifications to).
//
// Usage:
//
//	diffreport -load results.json [-top N]
//	diffreport -load results.json -frontier     # triage accuracy-vs-cost sweep
//	diffreport -load results.json -predict      # §VI: Figure 5, Table IV, rates
//	diffreport -triage results.json.triage.json # a tiered campaign's decisions
//
// The -frontier sweep replays the tiered scheduler (internal/triage)
// over a run-everything result set at a ladder of thresholds: every
// simulation wall and DIFF is already known there, so each operating
// point — escalation rate, rescued/missed DIFF mass, wall-clock saved
// — is exact. -triage renders the decision report a tiered
// `tradeoff -triage -save` run wrote. -predict runs the paper's
// Section VI study: it groups the traces by MFACT classification
// (Figure 5), trains the enhanced-MFACT need-for-simulation model with
// 100-fold Monte-Carlo cross-validation and step-wise AIC feature
// selection, and prints Table IV and the misclassification/FN/FP rates.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"hpctradeoff/internal/classifier"
	"hpctradeoff/internal/core"
	"hpctradeoff/internal/scheme"
	"hpctradeoff/internal/triage"
)

// frontierThresholds is the sweep ladder: both endpoints (the
// run-everything and model-only baselines) plus interior operating
// points.
var frontierThresholds = []float64{0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1}

// The -predict study's cross-validation: the paper's 100 Monte-Carlo
// partitions, a five-variable step-wise cap, and a fixed seed.
const (
	predictRuns    = 100
	predictMaxVars = 5
	predictSeed    = 2016
)

// renderPrediction prints Figure 5, Table IV and the §VI rates.
func renderPrediction(rs []*core.TraceResult) error {
	fmt.Println(core.BuildFigure5(rs).Render())
	study, err := core.BuildPredictionStudy(rs, predictRuns, predictMaxVars, predictSeed)
	if err != nil {
		return err
	}
	fmt.Println(study.RenderTable4(10))
	fmt.Println()
	fmt.Println(study.RenderRates())
	return nil
}

// renderFrontier computes and prints the accuracy-vs-cost frontier
// from a run-everything result set.
func renderFrontier(rs []*core.TraceResult, seed int64) error {
	pts := core.TriagePoints(rs)
	rows, err := triage.Frontier(pts, triage.Policy{Seed: seed}, frontierThresholds)
	if err != nil {
		return err
	}
	fmt.Print(triage.RenderFrontier(rows))
	fmt.Printf("\n%d of %d traces swept (traces without a model prediction and a successful simulation are dropped)\n",
		len(pts), len(rs))
	return nil
}

// renderTriageReport prints a tiered campaign's saved decision report.
func renderTriageReport(path string, top int) error {
	t, err := core.LoadTriageReport(path)
	if err != nil {
		return err
	}
	fmt.Printf("%s\npolicy: %s\n", t.Summary(), t.Policy)
	byReason := map[triage.Reason]int{}
	for _, d := range t.Decisions {
		byReason[d.Reason]++
	}
	fmt.Println("\ndecisions by reason:")
	for _, r := range []triage.Reason{
		triage.ReasonCalibration, triage.ReasonFlagged, triage.ReasonCleared,
		triage.ReasonEscalateAll, triage.ReasonModelOnly,
		triage.ReasonBudgetCount, triage.ReasonBudgetWall,
		triage.ReasonClassifierDown, triage.ReasonModelFailed,
	} {
		if n := byReason[r]; n > 0 {
			fmt.Printf("  %-16s %d\n", r, n)
		}
	}
	escalated := make([]triage.Decision, 0, len(t.Decisions))
	for _, d := range t.Decisions {
		if d.Escalate && d.Reason == triage.ReasonFlagged {
			escalated = append(escalated, d)
		}
	}
	sort.Slice(escalated, func(i, j int) bool {
		if escalated[i].Score != escalated[j].Score {
			return escalated[i].Score > escalated[j].Score
		}
		return escalated[i].Key < escalated[j].Key
	})
	if len(escalated) > 0 {
		fmt.Println("\nhighest-scored escalations:")
		for i, d := range escalated {
			if i >= top {
				break
			}
			fmt.Printf("  %-40s P=%.3f\n", d.Key, d.Score)
		}
	}
	return nil
}

func main() {
	load := flag.String("load", "", "results JSON from cmd/tradeoff -save")
	top := flag.Int("top", 25, "how many rows per section")
	frontier := flag.Bool("frontier", false, "render the triage accuracy-vs-cost frontier instead of the DIFF report")
	frontierSeed := flag.Int64("frontier-seed", 1, "classifier training seed for the frontier sweep")
	triageReport := flag.String("triage", "", "render a tiered campaign's triage report JSON (from tradeoff -triage -save)")
	predict := flag.Bool("predict", false, "render the §VI need-for-simulation study (Figure 5, Table IV, rates) instead of the DIFF report")
	flag.Parse()
	if *triageReport != "" {
		if err := renderTriageReport(*triageReport, *top); err != nil {
			fmt.Fprintln(os.Stderr, "diffreport:", err)
			os.Exit(1)
		}
		return
	}
	if *load == "" {
		fmt.Fprintln(os.Stderr, "usage: diffreport -load results.json [-frontier | -predict] | diffreport -triage report.json")
		os.Exit(2)
	}
	rs, err := core.LoadResultsFile(*load)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diffreport:", err)
		os.Exit(1)
	}
	if *frontier {
		if err := renderFrontier(rs, *frontierSeed); err != nil {
			fmt.Fprintln(os.Stderr, "diffreport:", err)
			os.Exit(1)
		}
		return
	}
	if *predict {
		if err := renderPrediction(rs); err != nil {
			fmt.Fprintln(os.Stderr, "diffreport:", err)
			os.Exit(1)
		}
		return
	}

	type row struct {
		id           string
		signed, diff float64
		bw, lat, wt  float64
		grp          core.Group
	}
	var rows []row
	for _, r := range rs {
		d, ok := r.DiffTotal(scheme.PacketFlow)
		model := r.Model()
		if !ok || model == nil {
			continue
		}
		signed := float64(r.Schemes[scheme.PacketFlow].Total)/float64(model.Total()) - 1
		rows = append(rows, row{
			id: r.ID, signed: signed, diff: d,
			bw: model.BandwidthSensitivity(), lat: model.LatencySensitivity(),
			wt: model.WaitFraction(), grp: r.Group(),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].diff > rows[j].diff })

	fmt.Printf("largest |DIFFtotal| (packet-flow vs MFACT), %d traces total:\n", len(rows))
	fmt.Printf("  %-30s %-9s %-7s %-7s %-6s %s\n", "trace", "DIFF", "bwSens", "latSens", "wait", "group")
	for i, r := range rows {
		if i >= *top {
			break
		}
		fmt.Printf("  %-30s %+8.2f%% %6.2f  %6.2f  %5.2f  %s\n",
			r.id, 100*r.signed, r.bw, r.lat, r.wt, r.grp)
	}

	thr := classifier.NeedSimThreshold
	fn, fp := 0, 0
	fmt.Printf("\nnaive-rule mismatches (threshold %.0f%%):\n", 100*thr)
	for _, r := range rows {
		cs := r.grp == core.GroupCommSensitive
		switch {
		case !cs && r.diff > thr:
			fn++
		case cs && r.diff <= thr:
			fp++
		}
	}
	fmt.Printf("  false negatives (ncs but DIFF > %.0f%%): %d\n", 100*thr, fn)
	fmt.Printf("  false positives (cs but DIFF ≤ %.0f%%):  %d\n", 100*thr, fp)
	fmt.Printf("  naive success rate: %.1f%%\n", 100*float64(len(rows)-fn-fp)/float64(max(len(rows), 1)))
}
