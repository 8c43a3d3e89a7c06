package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Verdicts of one workload × end-to-end metric row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// limit is the most by which a second median may exceed the first.
func (d metricDef) limit(first float64) float64 {
	if d.exact {
		return d.abs
	}
	return max(d.bound*first, d.abs)
}

// verdict holds the second set of runs (b) to the first (a) on one
// metric. A measured row is unresolved when the data cannot tell a
// regression from noise: either side's run-to-run spread (quartile
// distance) is wider than the bound and the two sets interleave, so
// neither "regressed" nor "unchanged" can be claimed; or a time is worse
// by more than the bound but the host itself ran the fixed calibration
// spin more than 10 % differently under the two sets (spinA, spinB).
func verdict(d metricDef, a, b series, spinA, spinB float64) string {
	limit := d.limit(a.Median)
	worse := b.Median-a.Median > limit
	if !d.exact && a.Median > 0 && b.Median > 0 {
		spread := max(a.Q3-a.Q1, (b.Q3-b.Q1)*a.Median/b.Median)
		if spread > limit && b.Min <= a.Max && a.Min <= b.Max {
			return verdictUnresolved
		}
		if worse && d.unit == "s" && (spinA > 1.1*spinB || spinB > 1.1*spinA) {
			return verdictUnresolved
		}
	}
	if worse {
		return verdictRegressed
	}
	return verdictOK
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchmark: %s: %w", path, err)
	}
	return &r, nil
}

// compareReports prints one row per workload × end-to-end metric and
// returns an error when any row regressed.
func compareReports(out io.Writer, pathA, pathB string) error {
	a, err := loadReport(pathA)
	if err != nil {
		return err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return err
	}
	byName := map[string]workloadReport{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tbound\tverdict")
	spinNote := ""
	regressed := 0
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			return fmt.Errorf("benchmark: %s has no workload %s", pathB, wa.Name)
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), failedShare) {
			sa, sb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			v := verdict(d, sa, sb, wa.SpinMS, wb.SpinMS)
			if v == verdictRegressed {
				regressed++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f [%.4f, %.4f]\t%.4f [%.4f, %.4f]\t%.4f %s\t%s\n",
				wa.Name, d.name, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3,
				d.limit(sa.Median), sa.Unit, v)
		}
		spinNote += fmt.Sprintf("%s: calibration spin %.1f ms under A, %.1f ms under B\n", wa.Name, wa.SpinMS, wb.SpinMS)
	}
	tw.Flush()
	fmt.Fprint(out, spinNote)
	if regressed > 0 {
		return fmt.Errorf("benchmark: %d row(s) regressed", regressed)
	}
	return nil
}
