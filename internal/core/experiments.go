package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hpctradeoff/internal/classifier"
	"hpctradeoff/internal/features"
	"hpctradeoff/internal/metrics"
	"hpctradeoff/internal/scheme"
)

// This file regenerates the paper's tables and figures from a slice of
// TraceResults. Each ExperimentX function returns structured data with
// a Render method producing the text artifact.
//
// Every builder tolerates partial result sets: a keep-going campaign
// leaves nil entries for failed traces, which the builders drop and
// count, and the renders annotate with an exclusion note so a table
// built from 233 of 235 traces says so.

// live drops nil entries (failed traces in a keep-going campaign) and
// reports how many were excluded.
func live(rs []*TraceResult) ([]*TraceResult, int) {
	excluded := 0
	for _, r := range rs {
		if r == nil {
			excluded++
		}
	}
	if excluded == 0 {
		return rs, 0
	}
	out := make([]*TraceResult, 0, len(rs)-excluded)
	for _, r := range rs {
		if r != nil {
			out = append(out, r)
		}
	}
	return out, excluded
}

// exclusionNote renders the partial-result annotation, or "" when the
// set is complete.
func exclusionNote(excluded int) string {
	if excluded == 0 {
		return ""
	}
	return fmt.Sprintf("  [%d failed traces excluded]", excluded)
}

// simSchemes returns the simulation scheme names present in rs, in
// table order (names not in the built-in table sort last,
// alphabetically), so the builders iterate deterministically even over
// results loaded from disk or produced by other schemes.
func simSchemes(rs []*TraceResult) []string {
	present := map[string]bool{}
	for _, r := range rs {
		if r == nil {
			continue
		}
		for name, o := range r.Schemes {
			if o.Kind == scheme.KindSimulation {
				present[name] = true
			}
		}
	}
	regPos := map[string]int{}
	for i, n := range scheme.Names() {
		regPos[n] = i
	}
	out := make([]string, 0, len(present))
	for n := range present {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		pi, iok := regPos[out[i]]
		pj, jok := regPos[out[j]]
		switch {
		case iok && jok:
			return pi < pj
		case iok:
			return true
		case jok:
			return false
		}
		return out[i] < out[j]
	})
	return out
}

// ---------------------------------------------------------------- T1

// Table1 is the trace-characteristics table (paper Table I).
type Table1 struct {
	RankBuckets []BucketCount
	CommBuckets []BucketCount
	Total       int
	// Excluded counts failed traces dropped from a partial result set.
	Excluded int
}

// BucketCount is one histogram row.
type BucketCount struct {
	Label string
	Count int
}

// BuildTable1 computes the rank-count and communication-intensity
// distributions.
func BuildTable1(rs []*TraceResult) Table1 {
	rs, excluded := live(rs)
	t := Table1{Total: len(rs), Excluded: excluded}
	rankLabels := []string{"64", "65-128", "129-256", "257-512", "513-1024", "1025-1728"}
	rankCounts := make([]int, len(rankLabels))
	for _, r := range rs {
		switch n := r.Params.Ranks; {
		case n <= 64:
			rankCounts[0]++
		case n <= 128:
			rankCounts[1]++
		case n <= 256:
			rankCounts[2]++
		case n <= 512:
			rankCounts[3]++
		case n <= 1024:
			rankCounts[4]++
		default:
			rankCounts[5]++
		}
	}
	for i, l := range rankLabels {
		t.RankBuckets = append(t.RankBuckets, BucketCount{l, rankCounts[i]})
	}
	commLabels := []string{"<=5", "5-10", "10-20", "20-40", "40-60", ">60"}
	commCounts := make([]int, len(commLabels))
	for _, r := range rs {
		switch f := 100 * r.CommFraction; {
		case f <= 5:
			commCounts[0]++
		case f <= 10:
			commCounts[1]++
		case f <= 20:
			commCounts[2]++
		case f <= 40:
			commCounts[3]++
		case f <= 60:
			commCounts[4]++
		default:
			commCounts[5]++
		}
	}
	for i, l := range commLabels {
		t.CommBuckets = append(t.CommBuckets, BucketCount{l, commCounts[i]})
	}
	return t
}

// Render formats Table1.
func (t Table1) Render() string {
	var rows [][]string
	for _, b := range t.RankBuckets {
		rows = append(rows, []string{b.Label, fmt.Sprint(b.Count)})
	}
	rows = append(rows, []string{"Total", fmt.Sprint(t.Total)})
	out := "Table I(a): number of ranks\n" + metrics.Table([]string{"Ranks", "Traces"}, rows)
	rows = rows[:0]
	for _, b := range t.CommBuckets {
		rows = append(rows, []string{b.Label, fmt.Sprint(b.Count)})
	}
	rows = append(rows, []string{"Total", fmt.Sprint(t.Total)})
	out += "\nTable I(b): communication time (%)\n" + metrics.Table([]string{"Comm. time (%)", "Traces"}, rows)
	if t.Excluded > 0 {
		out += "\n" + exclusionNote(t.Excluded)
	}
	return out
}

// ---------------------------------------------------------------- T2

// Table2Row is one application's execution-time row (paper Table II).
type Table2Row struct {
	Name                 string
	Packet, Flow, PktFlw time.Duration
	MFACT                time.Duration
}

// BuildTable2 extracts the execution times for the named traces
// (the paper lists CMC(1024), LULESH(512), MiniFE(1152)).
func BuildTable2(rs []*TraceResult, want map[string]int) []Table2Row {
	rs, _ = live(rs)
	var out []Table2Row
	for _, r := range rs {
		if n, ok := want[r.Params.App]; !ok || n != r.Params.Ranks {
			continue
		}
		out = append(out, Table2Row{
			Name:   fmt.Sprintf("%s(%d)", r.Params.App, r.Params.Ranks),
			Packet: r.Schemes[scheme.Packet].Wall,
			Flow:   r.Schemes[scheme.Flow].Wall,
			PktFlw: r.Schemes[scheme.PacketFlow].Wall,
			MFACT:  r.ModelWall(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RenderTable2 formats Table II.
func RenderTable2(rows []Table2Row) string {
	var trows [][]string
	f := func(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }
	for _, r := range rows {
		trows = append(trows, []string{r.Name, f(r.Packet), f(r.Flow), f(r.PktFlw), f(r.MFACT)})
	}
	return "Table II: execution time in seconds\n" +
		metrics.Table([]string{"App", "Pkt", "Flow", "Pkt-flow", "MFACT"}, trows)
}

// ---------------------------------------------------------------- F1

// Figure1 reports each simulation scheme's execution time as a
// multiple of MFACT's, bucketed ≤10×, ≤100×, ≤1000×, >1000×.
type Figure1 struct {
	// Used is the number of traces where every scheme succeeded and
	// the run was not trivially small (the paper keeps 126 of 235).
	Used int
	// Sims lists the simulation scheme names the figure covers, in
	// table order — the iteration order of Buckets and Ratios.
	Sims []string
	// Buckets[scheme] = cumulative fractions for ≤10×, ≤100×, ≤1000×,
	// and the fraction >1000×.
	Buckets map[string][]float64
	// FirstPlace[scheme] = fraction of traces where the scheme was the
	// fastest ("MFACT ranks first for all cases").
	FirstPlace map[string]float64
	// Ratios holds the raw per-trace ratios per scheme.
	Ratios map[string][]float64
	// Excluded counts failed traces dropped from a partial result set.
	Excluded int
}

// BuildFigure1 computes the performance comparison. minWall drops
// traces whose largest simulation wall time is below the threshold
// (the paper drops sub-second simulations such as EP and DT).
func BuildFigure1(rs []*TraceResult, minWall time.Duration) Figure1 {
	rs, excluded := live(rs)
	f := Figure1{
		Sims:       simSchemes(rs),
		Buckets:    make(map[string][]float64),
		FirstPlace: make(map[string]float64),
		Ratios:     make(map[string][]float64),
		Excluded:   excluded,
	}
	firsts := make(map[string]int)
	for _, r := range rs {
		if mo, ok := r.Schemes[scheme.MFACT]; !ok || !mo.OK {
			continue
		}
		allOK := true
		var maxWall time.Duration
		for _, m := range f.Sims {
			s := r.Schemes[m]
			if !s.OK {
				allOK = false
				break
			}
			if s.Wall > maxWall {
				maxWall = s.Wall
			}
		}
		if !allOK || maxWall < minWall {
			continue
		}
		f.Used++
		best, bestWall := "MFACT", r.ModelWall()
		for _, m := range f.Sims {
			w := r.Schemes[m].Wall
			ratio := float64(w) / float64(maxDur(r.ModelWall(), time.Nanosecond))
			f.Ratios[m] = append(f.Ratios[m], ratio)
			if w < bestWall {
				best, bestWall = m, w
			}
		}
		firsts[best]++
	}
	for _, m := range f.Sims {
		f.Buckets[m] = metrics.RatioBuckets(f.Ratios[m], []float64{10, 100, 1000})
	}
	for k, v := range firsts {
		f.FirstPlace[k] = float64(v) / float64(max(f.Used, 1))
	}
	return f
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// Render formats Figure 1.
func (f Figure1) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: simulation time as multiples of MFACT's modeling time (%d traces)%s\n",
		f.Used, exclusionNote(f.Excluded))
	var rows [][]string
	for _, m := range f.Sims {
		bk := f.Buckets[m]
		rows = append(rows, []string{m,
			metrics.Pct(bk[0]), metrics.Pct(bk[1]), metrics.Pct(bk[2]), metrics.Pct(bk[3])})
	}
	b.WriteString(metrics.Table([]string{"Model", "<=10x", "<=100x", "<=1000x", ">1000x"}, rows))
	fmt.Fprintf(&b, "\nFastest scheme share: MFACT %.1f%%\n", 100*f.FirstPlace["MFACT"])
	return b.String()
}

// ---------------------------------------------------------------- F2

// Figure2 holds the accuracy CDFs of the simulation schemes against
// MFACT.
type Figure2 struct {
	// Sims lists the simulation scheme names, in table order — the
	// iteration order of the CDF maps.
	Sims      []string
	CommDiff  map[string]metrics.CDF
	TotalDiff map[string]metrics.CDF
	// Excluded counts failed traces dropped from a partial result set.
	Excluded int
}

// BuildFigure2 computes |sim/model − 1| CDFs over all traces each
// backend completed.
func BuildFigure2(rs []*TraceResult) Figure2 {
	rs, excluded := live(rs)
	f := Figure2{
		Sims:      simSchemes(rs),
		CommDiff:  make(map[string]metrics.CDF),
		TotalDiff: make(map[string]metrics.CDF),
		Excluded:  excluded,
	}
	for _, m := range f.Sims {
		var comm, total []float64
		for _, r := range rs {
			if d, ok := r.DiffComm(m); ok {
				comm = append(comm, d)
			}
			if d, ok := r.DiffTotal(m); ok {
				total = append(total, d)
			}
		}
		f.CommDiff[m] = metrics.NewCDF(comm)
		f.TotalDiff[m] = metrics.NewCDF(total)
	}
	return f
}

// Render formats Figure 2.
func (f Figure2) Render() string {
	var b strings.Builder
	probes := []float64{0.01, 0.02, 0.05, 0.10, 0.20, 0.40}
	fmtPct := func(x float64) string { return fmt.Sprintf("%.0f%%", 100*x) }
	b.WriteString("Figure 2(a): |estimated communication time vs MFACT|" + exclusionNote(f.Excluded) + "\n")
	for _, m := range f.Sims {
		b.WriteString(metrics.CDFSeries("  "+m, f.CommDiff[m], probes, fmtPct))
	}
	b.WriteString("\nFigure 2(b): |estimated total time vs MFACT|\n")
	for _, m := range f.Sims {
		b.WriteString(metrics.CDFSeries("  "+m, f.TotalDiff[m], probes, fmtPct))
	}
	return b.String()
}

// ------------------------------------------------------------ F3/F4

// AppAccuracy is one application's row in Figures 3 and 4: the largest
// observed differences vs MFACT and the normalized-to-measured totals.
type AppAccuracy struct {
	App string
	// MaxCommDiff and MaxTotalDiff are the maxima over the app's traces
	// of |sim/model − 1| (packet-flow backend).
	MaxCommDiff, MaxTotalDiff float64
	// SimOverMeasured and ModelOverMeasured are the mean normalized
	// totals (prediction / measured).
	SimOverMeasured, ModelOverMeasured float64
	Traces                             int
}

// BuildAppAccuracy aggregates per-application accuracy for the given
// app names (NAS for Figure 3, DOE for Figure 4).
func BuildAppAccuracy(rs []*TraceResult, apps []string) []AppAccuracy {
	rs, _ = live(rs)
	byApp := make(map[string]*AppAccuracy)
	sums := make(map[string][2]float64)
	for _, r := range rs {
		keep := false
		for _, a := range apps {
			if r.Params.App == a {
				keep = true
			}
		}
		if !keep {
			continue
		}
		a := byApp[r.Params.App]
		if a == nil {
			a = &AppAccuracy{App: r.Params.App}
			byApp[r.Params.App] = a
		}
		if d, ok := r.DiffComm(scheme.PacketFlow); ok && d > a.MaxCommDiff {
			a.MaxCommDiff = d
		}
		if d, ok := r.DiffTotal(scheme.PacketFlow); ok && d > a.MaxTotalDiff {
			a.MaxTotalDiff = d
		}
		if s, model := r.Schemes[scheme.PacketFlow], r.Model(); s.OK && model != nil && r.Measured > 0 {
			v := sums[r.Params.App]
			v[0] += float64(s.Total) / float64(r.Measured)
			v[1] += float64(model.Total()) / float64(r.Measured)
			sums[r.Params.App] = v
			a.Traces++
		}
	}
	var out []AppAccuracy
	for app, a := range byApp {
		if a.Traces > 0 {
			v := sums[app]
			a.SimOverMeasured = v[0] / float64(a.Traces)
			a.ModelOverMeasured = v[1] / float64(a.Traces)
		}
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].App < out[j].App })
	return out
}

// RenderAppAccuracy formats a Figure 3/4 panel set.
func RenderAppAccuracy(title string, rows []AppAccuracy) string {
	var trows [][]string
	for _, r := range rows {
		trows = append(trows, []string{
			r.App,
			metrics.Pct(r.MaxCommDiff),
			metrics.Pct(r.MaxTotalDiff),
			fmt.Sprintf("%.3f", r.SimOverMeasured),
			fmt.Sprintf("%.3f", r.ModelOverMeasured),
			fmt.Sprint(r.Traces),
		})
	}
	return title + "\n" + metrics.Table(
		[]string{"App", "maxCommDiff", "maxTotalDiff", "sim/measured", "model/measured", "traces"}, trows)
}

// ---------------------------------------------------------------- F5

// Figure5 groups |DIFFtotal| (packet-flow vs MFACT) by the Section VI
// application groups.
type Figure5 struct {
	Groups map[Group]metrics.CDF
	Counts map[Group]int
	// Excluded counts failed traces dropped from a partial result set.
	Excluded int
}

// BuildFigure5 computes the per-group DIFF distributions.
func BuildFigure5(rs []*TraceResult) Figure5 {
	rs, excluded := live(rs)
	vals := make(map[Group][]float64)
	counts := make(map[Group]int)
	for _, r := range rs {
		g := r.Group()
		counts[g]++
		if d, ok := r.DiffTotal(scheme.PacketFlow); ok {
			vals[g] = append(vals[g], d)
		}
	}
	f := Figure5{Groups: make(map[Group]metrics.CDF), Counts: counts, Excluded: excluded}
	for g, v := range vals {
		f.Groups[g] = metrics.NewCDF(v)
	}
	return f
}

// Render formats Figure 5.
func (f Figure5) Render() string {
	var b strings.Builder
	b.WriteString("Figure 5: |DIFFtotal| by application group (packet-flow vs MFACT)" + exclusionNote(f.Excluded) + "\n")
	for _, g := range []Group{GroupComputation, GroupImbalance, GroupCommSensitive} {
		c := f.Groups[g]
		fmt.Fprintf(&b, "  %-25s n=%-3d  ≤1%%: %5.1f%%  ≤2%%: %5.1f%%  ≤10%%: %5.1f%%  max: %s\n",
			g, f.Counts[g],
			100*c.FractionWithin(0.01), 100*c.FractionWithin(0.02),
			100*c.FractionWithin(0.10), metrics.Pct(c.Max()))
	}
	return b.String()
}

// ---------------------------------------------------------- Sect. VI

// PredictionStudy holds the Section VI results: the naive baseline,
// the cross-validated statistical model, and Table IV.
type PredictionStudy struct {
	Observations []classifier.Observation
	NaiveRate    float64
	Model        *classifier.Model
}

// BuildPredictionStudy assembles observations (packet-flow DIFF vs
// MFACT, as the paper uses) and trains the enhanced-MFACT model with
// the paper's protocol (100 MC-CV runs, ≤5 variables).
func BuildPredictionStudy(rs []*TraceResult, runs, maxVars int, seed int64) (*PredictionStudy, error) {
	rs, _ = live(rs)
	var obs []classifier.Observation
	clIdx := features.Index("CLncs")
	for _, r := range rs {
		d, ok := r.DiffTotal(scheme.PacketFlow)
		if !ok || r.Features == nil {
			continue
		}
		// Recompute the CL feature from the stored sweep so the current
		// sensitivity rule applies even to reloaded results.
		x := append([]float64(nil), r.Features...)
		if model := r.Model(); clIdx >= 0 && model != nil {
			if model.CommSensitive() {
				x[clIdx] = 0
			} else {
				x[clIdx] = 1
			}
		}
		obs = append(obs, classifier.Observation{ID: r.ID, X: x, DiffTotal: d})
	}
	m, err := classifier.Train(obs, runs, maxVars, seed)
	if err != nil {
		return nil, err
	}
	return &PredictionStudy{
		Observations: obs,
		NaiveRate:    classifier.NaiveSuccessRate(obs),
		Model:        m,
	}, nil
}

// RenderTable4 formats the stepwise-selection ranking (paper Table IV).
func (p *PredictionStudy) RenderTable4(topN int) string {
	ranked := p.Model.CV.Ranked()
	if topN > 0 && len(ranked) > topN {
		ranked = ranked[:topN]
	}
	var rows [][]string
	for i, r := range ranked {
		rows = append(rows, []string{
			fmt.Sprint(i + 1), r.Name, metrics.Pct(r.Fraction), fmt.Sprintf("%.3g", r.MeanCoef),
		})
	}
	return "Table IV: variables selected in step-wise selection\n" +
		metrics.Table([]string{"Rank", "Variable", "% Selected", "Coefficient"}, rows)
}

// RenderRates formats the headline §VI rates.
func (p *PredictionStudy) RenderRates() string {
	cv := p.Model.CV
	needSim := 0
	for _, o := range p.Observations {
		if o.NeedsSimulation() {
			needSim++
		}
	}
	return fmt.Sprintf(
		"Prediction of the need for simulation (%d observations, %d require simulation)\n"+
			"  naive CL-only heuristic success rate: %5.1f%%\n"+
			"  statistical model success rate:       %5.1f%%  (trimmed-mean MR %.1f%%)\n"+
			"  trimmed-mean FN rate: %.1f%%   trimmed-mean FP rate: %.1f%%\n",
		len(p.Observations), needSim,
		100*p.NaiveRate,
		100*p.Model.SuccessRate(), 100*cv.TrimmedMR(),
		100*cv.TrimmedFN(), 100*cv.TrimmedFP())
}
