package core

import (
	"fmt"
	"sort"
	"strings"

	"hpctradeoff/internal/metrics"
	"hpctradeoff/internal/scheme"
	"hpctradeoff/internal/workload"
)

// The platform-variability study: every prediction scheme replays the
// trace noise-blind on the nominal machine, while the ground-truth
// stamper honors workload.Params.Noise (link-bandwidth jitter, node
// heterogeneity, amplified OS noise). As the injected amplitude grows,
// the measured times drift away from every noise-blind prediction —
// the question is how fast each scheme's error grows, and the paper's
// expectation is that analytic modeling (MFACT) degrades faster than
// contention-aware simulation. BuildVariability aggregates a
// spec-driven campaign (specs/variability.yaml) into per-axis,
// per-amplitude error cells; RenderVariability is the text artifact
// committed as results/variability.txt.

// ErrVsMeasured returns |T_scheme/T_measured − 1| — the named scheme's
// prediction error against the stamped ground truth — and whether it
// is defined (the scheme succeeded and a measured time exists). Unlike
// DiffTotal (scheme vs MFACT), this is the metric that moves when
// platform noise perturbs only the measurement.
func (tr *TraceResult) ErrVsMeasured(name string) (float64, bool) {
	o, ok := tr.Schemes[name]
	if !ok || !o.OK || tr.Measured <= 0 {
		return 0, false
	}
	d := float64(o.Total)/float64(tr.Measured) - 1
	if d < 0 {
		d = -d
	}
	return d, true
}

// VariabilityCell aggregates one (noise axis, amplitude) cell of the
// study.
type VariabilityCell struct {
	// Axis is "baseline" for the zero-noise points, one of
	// "link-jitter", "node-hetero", "os-noise" for single-axis sweeps,
	// or "mixed" when a point perturbs several axes at once.
	Axis string
	// Amplitude is the swept axis's value (0 for baseline; the largest
	// axis value for mixed points).
	Amplitude float64
	Traces    int
	// MeanErr and MaxErr map scheme name to the mean and maximum
	// ErrVsMeasured across the cell's traces.
	MeanErr map[string]float64
	MaxErr  map[string]float64
}

// noiseAxis classifies a noise point for cell grouping.
func noiseAxis(n workload.Noise) (string, float64) {
	type axis struct {
		name string
		amp  float64
	}
	var hot []axis
	if n.LinkJitter > 0 {
		hot = append(hot, axis{"link-jitter", n.LinkJitter})
	}
	if n.NodeHetero > 0 {
		hot = append(hot, axis{"node-hetero", n.NodeHetero})
	}
	if n.OSNoise > 0 {
		hot = append(hot, axis{"os-noise", n.OSNoise})
	}
	switch len(hot) {
	case 0:
		return "baseline", 0
	case 1:
		return hot[0].name, hot[0].amp
	}
	max := hot[0].amp
	for _, a := range hot[1:] {
		if a.amp > max {
			max = a.amp
		}
	}
	return "mixed", max
}

// schemesPresent lists every scheme name with at least one successful
// outcome in rs, in table order (names not in the table last,
// alphabetically) — same ordering contract as simSchemes, but
// including the modeling schemes, because MFACT's degradation is the
// study's headline.
func schemesPresent(rs []*TraceResult) []string {
	present := map[string]bool{}
	for _, r := range rs {
		if r == nil {
			continue
		}
		for name, o := range r.Schemes {
			if o.OK {
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

// BuildVariability groups rs into noise cells. The result is sorted
// baseline first, then by axis name and ascending amplitude, so the
// render is deterministic.
func BuildVariability(rs []*TraceResult) []VariabilityCell {
	rs, _ = live(rs)
	schemes := schemesPresent(rs)
	type key struct {
		axis string
		amp  float64
	}
	cells := map[key]*VariabilityCell{}
	counts := map[key]map[string]int{}
	for _, r := range rs {
		axis, amp := noiseAxis(r.Params.Noise)
		k := key{axis, amp}
		c := cells[k]
		if c == nil {
			c = &VariabilityCell{
				Axis: axis, Amplitude: amp,
				MeanErr: map[string]float64{}, MaxErr: map[string]float64{},
			}
			cells[k] = c
			counts[k] = map[string]int{}
		}
		c.Traces++
		for _, s := range schemes {
			if e, ok := r.ErrVsMeasured(s); ok {
				c.MeanErr[s] += e
				if e > c.MaxErr[s] {
					c.MaxErr[s] = e
				}
				counts[k][s]++
			}
		}
	}
	out := make([]VariabilityCell, 0, len(cells))
	for k, c := range cells {
		for s, n := range counts[k] {
			if n > 0 {
				c.MeanErr[s] /= float64(n)
			}
		}
		out = append(out, *c)
	}
	rank := func(axis string) int {
		switch axis {
		case "baseline":
			return 0
		case "link-jitter":
			return 1
		case "node-hetero":
			return 2
		case "os-noise":
			return 3
		}
		return 4
	}
	sort.Slice(out, func(i, j int) bool {
		if ri, rj := rank(out[i].Axis), rank(out[j].Axis); ri != rj {
			return ri < rj
		}
		if out[i].Axis != out[j].Axis {
			return out[i].Axis < out[j].Axis
		}
		return out[i].Amplitude < out[j].Amplitude
	})
	return out
}

// RenderVariability formats the study table: one row per noise cell,
// one mean/max error column pair per scheme.
func RenderVariability(cells []VariabilityCell) string {
	if len(cells) == 0 {
		return "Variability study: no results"
	}
	present := map[string]bool{}
	for _, c := range cells {
		for s := range c.MeanErr {
			present[s] = true
		}
	}
	var schemes []string
	for _, n := range scheme.Names() {
		if present[n] {
			schemes = append(schemes, n)
			delete(present, n)
		}
	}
	var rest []string
	for n := range present {
		rest = append(rest, n)
	}
	sort.Strings(rest)
	schemes = append(schemes, rest...)

	header := []string{"Noise axis", "Amplitude", "Traces"}
	for _, s := range schemes {
		header = append(header, s+" mean", s+" max")
	}
	var rows [][]string
	for _, c := range cells {
		amp := fmt.Sprintf("%g", c.Amplitude)
		if c.Axis == "baseline" {
			amp = "-"
		}
		row := []string{c.Axis, amp, fmt.Sprint(c.Traces)}
		for _, s := range schemes {
			if _, ok := c.MeanErr[s]; !ok {
				row = append(row, "-", "-")
				continue
			}
			row = append(row, metrics.Pct(c.MeanErr[s]), metrics.Pct(c.MaxErr[s]))
		}
		rows = append(rows, row)
	}
	var b strings.Builder
	b.WriteString("Variability study: prediction error vs measured (|T_pred/T_meas − 1|)\n")
	b.WriteString("Ground truth is stamped under the named platform-noise axis; every\n")
	b.WriteString("scheme predicts noise-blind on the nominal machine.\n")
	b.WriteString(metrics.Table(header, rows))
	return b.String()
}
