package mfact

import (
	"fmt"
	"strings"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/trace"
)

// Grid is a two-dimensional what-if sweep: predicted application time
// for every (bandwidth scale, latency scale) combination, from one
// replay. This is the "predict performance on numerous network
// configurations from a single trace replay" capability the MFACT
// paper demonstrates, in its most tabular form.
type Grid struct {
	// BWScales and LatScales are the axes.
	BWScales, LatScales []float64
	// Totals[i][j] is the predicted total under BWScales[i] and
	// LatScales[j].
	Totals [][]simtime.Time
	// Class is the application classification from the same replay.
	Class Class
}

// GridSweep replays src once over the full bw × lat cross product.
// Nil axes default to {1/4, 1/2, 1, 2, 4}.
func GridSweep(src trace.Source, mach *machine.Config, bwScales, latScales []float64) (*Grid, error) {
	if bwScales == nil {
		bwScales = []float64{0.25, 0.5, 1, 2, 4}
	}
	if latScales == nil {
		latScales = []float64{0.25, 0.5, 1, 2, 4}
	}
	cfgs := []NetConfig{Baseline}
	for _, bw := range bwScales {
		for _, lat := range latScales {
			cfgs = append(cfgs, NetConfig{BWScale: bw, LatScale: lat, CompScale: 1})
		}
	}
	res, err := Model(src, mach, cfgs)
	if err != nil {
		return nil, err
	}
	g := &Grid{
		BWScales:  append([]float64(nil), bwScales...),
		LatScales: append([]float64(nil), latScales...),
		Class:     res.Class,
	}
	k := 1
	g.Totals = make([][]simtime.Time, len(bwScales))
	for i := range bwScales {
		g.Totals[i] = make([]simtime.Time, len(latScales))
		for j := range latScales {
			g.Totals[i][j] = res.Totals[k]
			k++
		}
	}
	return g, nil
}

// At returns the predicted total for the given scales, or -1 when the
// combination is not on the grid.
func (g *Grid) At(bw, lat float64) simtime.Time {
	for i, b := range g.BWScales {
		if b != bw {
			continue
		}
		for j, l := range g.LatScales {
			if l == lat {
				return g.Totals[i][j]
			}
		}
	}
	return -1
}

// Render formats the grid as a table (rows: bandwidth scale; columns:
// latency scale).
func (g *Grid) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "predicted total time by network configuration (%v)\n", g.Class)
	fmt.Fprintf(&b, "%-8s", "bw\\lat")
	for _, l := range g.LatScales {
		fmt.Fprintf(&b, " %10s", fmt.Sprintf("×%g", l))
	}
	b.WriteByte('\n')
	for i, bw := range g.BWScales {
		fmt.Fprintf(&b, "%-8s", fmt.Sprintf("×%g", bw))
		for j := range g.LatScales {
			fmt.Fprintf(&b, " %10v", g.Totals[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
