// Package triage turns the paper's enhanced-MFACT classifier from a
// post-hoc analysis into the campaign's control loop: every trace is
// modeled with MFACT (tier 0, cheap), the classifier predicts from the
// modeling run's Table III features whether expensive simulation would
// disagree (DIFFtotal > 2%), and only flagged traces escalate to the
// simulation schemes — the cheap-tier-first, escalate-on-doubt shape
// that makes the 235-trace study affordable at volume.
//
// The scheduler is deterministic by construction: the calibration
// split is a fixed, evenly-spaced slice of the manifest, training is
// seeded (stats.MonteCarloCV), candidates are scored and planned in
// manifest order, and ties in the greedy budget spend break on the
// trace key. A campaign journals every decision (internal/core's
// checkpoint v3), so a killed-and-resumed campaign replays the exact
// same escalation set instead of re-deriving it.
//
// Failure posture: a broken classifier must never silently skip
// simulation. Any scoring or training failure degrades the plan to
// escalate-always, and the degradation is counted in the frontier
// report.
package triage

import (
	"fmt"
	"math"
	"sort"
	"time"

	"hpctradeoff/internal/classifier"
)

// Policy configures the tiered triage scheduler. The zero value is not
// meaningful; use Normalize to apply defaults.
type Policy struct {
	// Threshold is the escalation cut on the classifier's predicted
	// probability that simulation would disagree: a trace escalates
	// when P ≥ Threshold. Threshold ≤ 0 escalates every trace (the
	// run-everything baseline, no classifier involved); Threshold ≥ 1
	// escalates none (the model-only baseline). The classifier's
	// probabilities are strictly inside (0, 1), so the endpoints are
	// exact, not approximate.
	Threshold float64 `json:"threshold"`
	// MaxEscalations caps how many traces may escalate beyond the
	// calibration split (0 = unlimited). The budget is spent greedily
	// by descending escalation score.
	MaxEscalations int `json:"max_escalations,omitempty"`
	// MaxWall is a wall-clock budget for the escalation phase, spent
	// greedily in descending-score order: once the cumulative wall time
	// of completed escalations reaches it, remaining flagged traces are
	// demoted to their tier-0 model result (0 = unlimited).
	MaxWall time.Duration `json:"max_wall,omitempty"`
	// Calibration is how many traces run the full scheme set to train
	// the classifier (the held-out calibration split). 0 applies the
	// default (max(16, n/10)); a value ≥ the manifest size runs
	// everything at full fidelity.
	Calibration int `json:"calibration,omitempty"`
	// CVRuns and MaxVars configure the training protocol
	// (stats.MonteCarloCV Monte-Carlo partitions, step-wise selection
	// cap). Zero applies the defaults (50 runs, 5 variables).
	CVRuns  int `json:"cv_runs,omitempty"`
	MaxVars int `json:"max_vars,omitempty"`
	// Seed seeds the Monte-Carlo cross-validation, making training —
	// and therefore every escalation decision — reproducible.
	Seed int64 `json:"seed,omitempty"`
}

// Defaults applied by Normalize.
const (
	defaultCVRuns        = 50
	defaultMaxVars       = 5
	defaultCalibrationLo = 16
)

// Normalize returns the policy with defaults applied for a manifest of
// n traces.
func (p Policy) Normalize(n int) Policy {
	if p.Calibration <= 0 {
		p.Calibration = defaultCalibrationLo
		if c := n / 10; c > p.Calibration {
			p.Calibration = c
		}
	}
	if p.Calibration > n {
		p.Calibration = n
	}
	if p.CVRuns <= 0 {
		p.CVRuns = defaultCVRuns
	}
	if p.MaxVars <= 0 {
		p.MaxVars = defaultMaxVars
	}
	return p
}

// Equal reports whether two policies would make identical decisions —
// the resume gate: a checkpoint journal written under one policy
// refuses to resume under a different one.
func (p Policy) Equal(q Policy) bool {
	return p.Threshold == q.Threshold &&
		p.MaxEscalations == q.MaxEscalations &&
		p.MaxWall == q.MaxWall &&
		p.Calibration == q.Calibration &&
		p.CVRuns == q.CVRuns &&
		p.MaxVars == q.MaxVars &&
		p.Seed == q.Seed
}

// String renders the policy for operator messages and resume errors.
func (p Policy) String() string {
	s := fmt.Sprintf("threshold=%g calibration=%d cvruns=%d maxvars=%d seed=%d",
		p.Threshold, p.Calibration, p.CVRuns, p.MaxVars, p.Seed)
	if p.MaxEscalations > 0 {
		s += fmt.Sprintf(" max-escalations=%d", p.MaxEscalations)
	}
	if p.MaxWall > 0 {
		s += fmt.Sprintf(" max-wall=%v", p.MaxWall)
	}
	return s
}

// Reason explains one triage decision; it is journaled with the
// decision so a resumed campaign and the frontier report can account
// for every trace.
type Reason string

// The decision reasons.
const (
	// ReasonEscalateAll marks threshold ≤ 0: every trace escalates,
	// no classifier involved.
	ReasonEscalateAll Reason = "threshold-all"
	// ReasonModelOnly marks threshold ≥ 1: no trace escalates.
	ReasonModelOnly Reason = "threshold-none"
	// ReasonCalibration marks a calibration-split trace: it runs the
	// full scheme set to train the classifier.
	ReasonCalibration Reason = "calibration"
	// ReasonFlagged marks a trace the classifier scored at or above the
	// threshold, within budget.
	ReasonFlagged Reason = "flagged"
	// ReasonCleared marks a trace the classifier scored below the
	// threshold: its tier-0 model result is final.
	ReasonCleared Reason = "cleared"
	// ReasonBudgetCount marks a flagged trace demoted because the
	// escalation-count budget was already spent on higher scores.
	ReasonBudgetCount Reason = "budget-count"
	// ReasonBudgetWall marks a flagged trace demoted at dispatch time
	// because the wall-clock budget ran out.
	ReasonBudgetWall Reason = "budget-wall"
	// ReasonClassifierDown marks an escalation forced by a training or
	// scoring failure: a broken classifier escalates everything rather
	// than silently trusting the model.
	ReasonClassifierDown Reason = "classifier-down"
	// ReasonModelFailed marks an escalation forced because the tier-0
	// modeling run itself failed, so there was nothing to score.
	ReasonModelFailed Reason = "model-failed"
)

// Decision is one trace's triage outcome. Decisions are journaled in
// the campaign checkpoint (v3) and replayed verbatim on resume.
type Decision struct {
	// Key is the trace's campaign key.
	Key string `json:"key"`
	// Score is the classifier's predicted probability that simulation
	// would disagree (0 when no classifier ran).
	Score float64 `json:"score,omitempty"`
	// Escalate is the verdict: true runs the full scheme set.
	Escalate bool `json:"escalate,omitempty"`
	// Reason explains the verdict.
	Reason Reason `json:"reason"`
}

// Candidate is one scored-or-scorable trace: its key and the Table III
// feature vector from its tier-0 modeling run (nil when the modeling
// run failed).
type Candidate struct {
	Key string
	X   []float64
}

// Scheduler makes escalation decisions for one campaign. It is not
// safe for concurrent use; the campaign plans on one goroutine.
type Scheduler struct {
	policy  Policy
	model   *classifier.Model
	down    bool
	downErr error
}

// New returns a scheduler for the normalized policy.
func New(p Policy) *Scheduler { return &Scheduler{policy: p} }

// Policy returns the scheduler's (normalized) policy.
func (s *Scheduler) Policy() Policy { return s.policy }

// NeedsClassifier reports whether the policy's threshold is strictly
// inside (0, 1) — the only case where calibration and scoring run at
// all. At the endpoints the plan is decided by the threshold alone.
func (s *Scheduler) NeedsClassifier() bool {
	return s.policy.Threshold > 0 && s.policy.Threshold < 1
}

// CalibrationIndices returns the manifest indices of the calibration
// split for a manifest of n traces: Calibration evenly-spaced picks,
// deterministic in (n, policy), so every run and resume of a campaign
// derives the identical split. No classifier, no split.
func (s *Scheduler) CalibrationIndices(n int) []int {
	if !s.NeedsClassifier() || n == 0 {
		return nil
	}
	k := s.policy.Calibration
	if k >= n {
		k = n
	}
	out := make([]int, 0, k)
	seen := make(map[int]bool, k)
	for i := 0; i < k; i++ {
		// Evenly spaced over the manifest so the split covers the app ×
		// rank × machine axes rather than one prefix corner.
		idx := i * n / k
		for seen[idx] {
			idx++
		}
		seen[idx] = true
		out = append(out, idx)
	}
	sort.Ints(out)
	return out
}

// Train fits the classifier on the calibration observations. A
// training failure (too few usable observations, non-finite features,
// a split of one label) does not fail the campaign: it marks the
// classifier down, and Plan escalates everything.
func (s *Scheduler) Train(obs []classifier.Observation) error {
	if !s.NeedsClassifier() {
		return nil
	}
	m, err := classifier.Train(obs, s.policy.CVRuns, s.policy.MaxVars, s.policy.Seed)
	if err != nil {
		s.down, s.downErr = true, err
		return err
	}
	s.model = m
	return nil
}

// Down reports whether the classifier is unusable, and why.
func (s *Scheduler) Down() (bool, error) { return s.down || s.model == nil, s.downErr }

// Score returns the classifier's predicted probability that simulation
// would disagree for one full feature vector. Failures (no trained
// classifier, a NaN score from a non-finite feature) mark the
// classifier down.
func (s *Scheduler) Score(key string, x []float64) (float64, error) {
	if s.model == nil {
		err := fmt.Errorf("triage: no trained classifier")
		s.down, s.downErr = true, err
		return 0, err
	}
	p := s.model.Score(x)
	if math.IsNaN(p) {
		err := fmt.Errorf("triage: classifier produced NaN score for %s", key)
		s.down, s.downErr = true, err
		return 0, err
	}
	return p, nil
}

// Plan scores every candidate and returns one decision per candidate,
// in the candidates' order. Flagged traces beyond the escalation-count
// budget — ranked by descending score, ties broken by key — are
// demoted to ReasonBudgetCount. The wall-clock budget is not applied
// here: it is spent at dispatch time by the campaign, which appends
// superseding ReasonBudgetWall decisions to the journal.
//
// If the threshold is at an endpoint the classifier is bypassed
// entirely. If training failed or any scoring call fails, the whole
// plan degrades to escalate-always (ReasonClassifierDown): a broken
// classifier must never silently skip simulation. Candidates with a
// nil feature vector (tier-0 modeling failed) always escalate.
func (s *Scheduler) Plan(cands []Candidate) []Decision {
	out := make([]Decision, len(cands))
	switch {
	case s.policy.Threshold <= 0:
		for i, c := range cands {
			out[i] = Decision{Key: c.Key, Escalate: true, Reason: ReasonEscalateAll}
		}
		return out
	case s.policy.Threshold >= 1:
		for i, c := range cands {
			if c.X == nil {
				// Even the model-only baseline cannot clear a trace whose
				// model run failed; it escalates so some scheme predicts it.
				out[i] = Decision{Key: c.Key, Escalate: true, Reason: ReasonModelFailed}
				continue
			}
			out[i] = Decision{Key: c.Key, Escalate: false, Reason: ReasonModelOnly}
		}
		return out
	}

	down, _ := s.Down()
	for i, c := range cands {
		if down {
			out[i] = Decision{Key: c.Key, Escalate: true, Reason: ReasonClassifierDown}
			continue
		}
		if c.X == nil {
			out[i] = Decision{Key: c.Key, Escalate: true, Reason: ReasonModelFailed}
			continue
		}
		p, err := s.Score(c.Key, c.X)
		if err != nil {
			// Degrade the entire plan, including candidates already
			// cleared in this loop: escalate-always, never skip-silently.
			down = true
			for j := 0; j <= i; j++ {
				out[j] = Decision{Key: cands[j].Key, Escalate: true, Reason: ReasonClassifierDown}
			}
			continue
		}
		if p >= s.policy.Threshold {
			out[i] = Decision{Key: c.Key, Score: p, Escalate: true, Reason: ReasonFlagged}
		} else {
			out[i] = Decision{Key: c.Key, Score: p, Escalate: false, Reason: ReasonCleared}
		}
	}

	// Greedy count budget: keep the MaxEscalations highest scores among
	// the classifier-flagged traces. Forced escalations (classifier
	// down, model failed) are not demotable — they have no model result
	// worth trusting.
	if s.policy.MaxEscalations > 0 {
		flagged := make([]int, 0, len(out))
		for i, d := range out {
			if d.Escalate && d.Reason == ReasonFlagged {
				flagged = append(flagged, i)
			}
		}
		if len(flagged) > s.policy.MaxEscalations {
			sort.Slice(flagged, func(a, b int) bool {
				da, db := out[flagged[a]], out[flagged[b]]
				if da.Score != db.Score {
					return da.Score > db.Score
				}
				return da.Key < db.Key
			})
			for _, i := range flagged[s.policy.MaxEscalations:] {
				out[i].Escalate = false
				out[i].Reason = ReasonBudgetCount
			}
		}
	}
	return out
}
