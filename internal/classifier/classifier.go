// Package classifier implements the "enhanced MFACT" of the paper's
// Section VI: a statistical model that predicts, from one cheap
// modeling run, whether detailed simulation of an application would
// produce a significantly different answer (DIFFtotal > 2%) and is
// therefore worth its cost.
package classifier

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"hpctradeoff/internal/features"
	"hpctradeoff/internal/stats"
)

// NeedSimThreshold is the paper's definition: an application "requires
// simulation" when |simulated/modeled − 1| exceeds 2%.
const NeedSimThreshold = 0.02

// Observation is one trace's data point: the Table III feature vector
// and the observed model to simulation discrepancy.
type Observation struct {
	// ID identifies the trace (trace.Meta.ID()).
	ID string
	// X is the 35-entry feature vector (features.ExtractSource order).
	X []float64
	// DiffTotal is |T_sim / T_model − 1| for the packet-flow model.
	DiffTotal float64
}

// NeedsSimulation is the training label.
func (o Observation) NeedsSimulation() bool { return o.DiffTotal > NeedSimThreshold }

// CommSensitive reads the CL feature back out of the vector.
func (o Observation) CommSensitive() bool {
	return o.X[features.Index("CLncs")] == 0
}

// BuildDataset assembles the stats design matrix from observations.
func BuildDataset(obs []Observation) (*stats.Dataset, error) {
	names := features.Names()
	d := &stats.Dataset{Cols: names}
	for _, o := range obs {
		if len(o.X) != len(names) {
			return nil, fmt.Errorf("classifier: observation %s has %d features, want %d", o.ID, len(o.X), len(names))
		}
		for _, x := range o.X {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("classifier: observation %s has non-finite feature", o.ID)
			}
		}
		d.X = append(d.X, o.X)
		d.Y = append(d.Y, o.NeedsSimulation())
	}
	return d, nil
}

// NaiveSuccessRate evaluates the paper's baseline heuristic —
// recommend simulation exactly for the MFACT-classified
// communication-sensitive applications — over the full dataset.
func NaiveSuccessRate(obs []Observation) float64 {
	if len(obs) == 0 {
		return 0
	}
	correct := 0
	for _, o := range obs {
		if o.CommSensitive() == o.NeedsSimulation() {
			correct++
		}
	}
	return float64(correct) / float64(len(obs))
}

// ErrOneLabel is returned (wrapped) by Train when every observation
// carries the same label: the data hold no evidence for the other
// class, so no score fitted on them means anything.
var ErrOneLabel = errors.New("classifier: every observation has the same label")

// Model is the trained enhanced-MFACT predictor.
type Model struct {
	// CV carries the Monte-Carlo cross-validation record (per-run error
	// rates, feature selection frequencies — Table IV's contents).
	CV *stats.CVResult
	// colIdx maps the final model's columns into the full feature
	// vector.
	colIdx []int
}

// Train runs the paper's protocol on the observations: `runs`
// Monte-Carlo 80/20 partitions, step-wise forward selection capped at
// maxVars features, and a final model fitted on the full data with the
// most-selected features. Observations of one label only are refused
// with ErrOneLabel.
func Train(obs []Observation, runs, maxVars int, seed int64) (*Model, error) {
	d, err := BuildDataset(obs)
	if err != nil {
		return nil, err
	}
	if len(d.Y) > 0 && !slices.Contains(d.Y, !d.Y[0]) {
		return nil, fmt.Errorf("%w (%d observations, needs simulation: %v)", ErrOneLabel, len(d.Y), d.Y[0])
	}
	cv, err := stats.MonteCarloCV(d, runs, maxVars, 0.8, seed)
	if err != nil {
		return nil, err
	}
	m := &Model{CV: cv}
	for _, name := range cv.FinalCols {
		idx := features.Index(name)
		if idx < 0 {
			return nil, fmt.Errorf("classifier: unknown selected feature %q", name)
		}
		m.colIdx = append(m.colIdx, idx)
	}
	return m, nil
}

// NeedsSimulation predicts from a full 35-entry feature vector.
func (m *Model) NeedsSimulation(x []float64) bool {
	return m.Score(x) > 0.5
}

// scoreClamp keeps Score strictly inside (0, 1): the logistic link is
// mathematically interior but saturates to exactly 0 or 1 in float64
// once |z| passes ~37.
const scoreClamp = 1e-9

// Score returns the predicted probability that simulation would
// disagree (DIFFtotal > 2%), from a full 35-entry feature vector. The
// result is strictly inside (0, 1), which the triage scheduler relies
// on: threshold 0 escalates everything and threshold 1 escalates
// nothing, exactly.
func (m *Model) Score(x []float64) float64 {
	sub := make([]float64, len(m.colIdx))
	for j, c := range m.colIdx {
		sub[j] = x[c]
	}
	p := m.CV.FinalModel.Prob(sub)
	return math.Min(1-scoreClamp, math.Max(scoreClamp, p))
}

// SelectedFeatures returns the final model's feature names with their
// fitted coefficients, in selection-frequency order — what the
// monotonicity property tests and the triage report inspect.
func (m *Model) SelectedFeatures() ([]string, []float64) {
	return append([]string(nil), m.CV.FinalCols...), append([]float64(nil), m.CV.FinalModel.Coef...)
}

// SuccessRate is the cross-validated success rate (1 − trimmed MR),
// the paper's headline 93.2%.
func (m *Model) SuccessRate() float64 { return m.CV.SuccessRate() }
