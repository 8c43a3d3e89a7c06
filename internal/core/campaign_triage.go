package core

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"hpctradeoff/internal/classifier"
	"hpctradeoff/internal/features"
	"hpctradeoff/internal/scheme"
	"hpctradeoff/internal/triage"
)

// The tiered campaign runs in four phases over one shared worker-pool
// state (journal, halt flag):
//
//  1. Calibration: a fixed, evenly-spaced slice of the manifest runs
//     the full scheme set; those results train the classifier. Skipped
//     entirely at the threshold endpoints (0 = run everything, 1 =
//     model only), which therefore stay bit-identical to the
//     non-tiered baselines.
//  2. Model pass: every remaining trace runs MFACT alone. These
//     results are provisional — not journaled, not reported — until a
//     decision clears them.
//  3. Planning: the scheduler scores each candidate and decides; every
//     decision is journaled before any escalation runs, then cleared
//     traces are finalized with their tier-0 results.
//  4. Escalation: flagged traces re-run the full scheme set, highest
//     score first. The wall-clock budget is spent here at dispatch
//     time; a demotion journals a superseding budget-wall decision
//     (the loader keeps the latest record per key).
//
// Determinism/resume contract: the calibration split, training
// (seeded), scoring, and the count budget are all deterministic in
// (manifest, policy), so a fresh campaign is reproducible. A resumed
// campaign replays journaled decisions verbatim — it re-plans only
// traces with no journaled decision — and the checkpoint header
// refuses a different policy outright. Completed traces are skipped by
// key, so no trace ever escalates twice. The one nondeterministic
// input, wall-clock spend, is journaled at the moment it demotes, so
// resume replays the demotion instead of re-measuring time.
//
// Failure posture: a broken classifier (training or scoring failure)
// degrades the plan to escalate-always — flagged-by-failure traces run the full
// scheme set, and the report counts the degradation. A failed tier-0
// model run escalates its trace (nothing to score, so nothing may be
// silently trusted); only budget demotions ever downgrade a flagged
// trace, and never one whose escalation was forced by a failure.

// runTriage executes the tiered campaign over the still-pending
// manifest indices. replayed holds the journaled decisions of a
// resumed campaign (nil otherwise).
func (c *campaign) runTriage(pending []int, replayed map[string]triage.Decision) {
	pol := *c.triage
	sched := triage.New(pol)
	n := len(c.ps)
	pend := make(map[int]bool, len(pending))
	for _, i := range pending {
		pend[i] = true
	}
	keys := make([]string, n)
	for i, p := range c.ps {
		keys[i] = CampaignKey(p)
	}

	calIdx := sched.CalibrationIndices(n)
	isCal := make(map[int]bool, len(calIdx))
	for _, i := range calIdx {
		isCal[i] = true
	}

	// Phase 1: calibration at full fidelity. Restored results count as
	// calibration data without re-running.
	var calPend []int
	for _, i := range calIdx {
		if pend[i] {
			calPend = append(calPend, i)
		}
	}
	c.runPool(poolOpts{indices: calPend, schemes: c.schemeNames, record: true})
	if c.halted() {
		return
	}

	// Train on every usable calibration result.
	if sched.NeedsClassifier() {
		var obs []classifier.Observation
		for _, i := range calIdx {
			if o, ok := triageObservation(c.results[i]); ok {
				obs = append(obs, o)
			}
		}
		if err := sched.Train(obs); err != nil {
			c.warnf("core: triage classifier training failed (%v); degrading to escalate-always", err)
		}
	}

	// Phase 2: tier-0 model pass. Needed to score undecided traces
	// (interior thresholds), to finalize the model-only endpoint, and
	// to re-derive the result of a replayed cleared decision whose
	// model record was lost to a crash. Never needed at threshold ≤ 0:
	// there every undecided trace escalates unscored.
	modelRes := make([]*TraceResult, n)
	modelErr := make([]*TraceError, n)
	var mpIdx []int
	for i := range c.ps {
		if !pend[i] || isCal[i] {
			continue
		}
		if d, ok := replayed[keys[i]]; ok {
			if !d.Escalate {
				mpIdx = append(mpIdx, i)
			}
			continue
		}
		if pol.Threshold > 0 {
			mpIdx = append(mpIdx, i)
		}
	}
	c.runPool(poolOpts{
		indices: mpIdx,
		schemes: []string{scheme.MFACT},
		onResult: func(i int, r *TraceResult, terr *TraceError) {
			modelRes[i], modelErr[i] = r, terr
		},
	})
	if c.halted() {
		// Surface in-flight model-pass failures (the fail-fast trigger,
		// or cancellations) as the traces' errors; nothing else may run.
		for _, i := range mpIdx {
			if modelErr[i] != nil && c.traceErrs[i] == nil && c.results[i] == nil {
				c.finish(i, nil, modelErr[i])
			}
		}
		return
	}

	// Phase 3: plan. Replayed decisions are adopted verbatim; only
	// traces without one are scored and planned, in manifest order.
	dec := make(map[int]triage.Decision, n)
	fresh := make(map[int]bool, n)
	decide := func(i int, d triage.Decision) {
		dec[i] = d
		if _, ok := replayed[keys[i]]; !ok {
			fresh[i] = true
		}
	}
	for _, i := range calIdx {
		decide(i, triage.Decision{Key: keys[i], Escalate: true, Reason: triage.ReasonCalibration})
	}
	var cands []triage.Candidate
	var candIdx []int
	replayCount := 0
	for i := range c.ps {
		if isCal[i] {
			continue
		}
		key := keys[i]
		if d, ok := replayed[key]; ok {
			dec[i] = d
			replayCount++
			continue
		}
		if !pend[i] {
			// A restored full-fidelity result without a decision record:
			// only possible for journals whose decision line was damaged
			// (decisions are journaled before any escalation result).
			// Synthesize from the result so the journal heals itself.
			decide(i, triage.Decision{Key: key, Escalate: len(c.results[i].Schemes) > 1, Reason: triage.ReasonFlagged})
			if !dec[i].Escalate {
				d := dec[i]
				d.Reason = triage.ReasonCleared
				decide(i, d)
			}
			continue
		}
		var x []float64
		if modelRes[i] != nil {
			x = triageX(modelRes[i])
		}
		cands = append(cands, triage.Candidate{Key: key, X: x})
		candIdx = append(candIdx, i)
	}
	for j, d := range sched.Plan(cands) {
		decide(candIdx[j], d)
	}

	// Journal every fresh decision, in manifest order, before anything
	// acts on it: a crash after this point replays the identical plan.
	if c.ckpt != nil {
		for i := 0; i < n; i++ {
			if !fresh[i] {
				continue
			}
			if err := c.ckpt.AppendDecision(dec[i]); err != nil {
				c.setInfraErr(fmt.Errorf("core: journaling triage decision for %s: %w", keys[i], err))
				return
			}
		}
	}

	// Finalize cleared traces with their tier-0 results.
	for i := 0; i < n; i++ {
		d, ok := dec[i]
		if !ok || d.Escalate || !pend[i] {
			continue
		}
		if c.halted() {
			return
		}
		if modelRes[i] == nil {
			terr := modelErr[i]
			if terr == nil {
				terr = &TraceError{ID: keys[i], Kind: KindUnknown,
					Err: fmt.Errorf("core: triage: no model result for cleared trace")}
			}
			c.finish(i, nil, terr)
			continue
		}
		c.journal(i, modelRes[i])
		c.finish(i, modelRes[i], nil)
	}
	if c.halted() {
		return
	}

	// Phase 4: escalations, highest score first (ties and unscored
	// forced escalations break on the key, so the order is
	// deterministic).
	var escIdx []int
	for i := 0; i < n; i++ {
		if d, ok := dec[i]; ok && d.Escalate && pend[i] && c.results[i] == nil {
			escIdx = append(escIdx, i)
		}
	}
	sort.Slice(escIdx, func(a, b int) bool {
		da, db := dec[escIdx[a]], dec[escIdx[b]]
		if da.Score != db.Score {
			return da.Score > db.Score
		}
		return da.Key < db.Key
	})

	// The wall budget counts completed escalation wall clock; the gate
	// demotes remaining demotable escalations once it is spent. Forced
	// escalations (calibration, classifier-down, model-failed) never
	// demote: a broken classifier must never silently skip simulation.
	var escWall atomic.Int64
	demotable := func(i int) bool {
		r := dec[i].Reason
		return r == triage.ReasonFlagged || r == triage.ReasonEscalateAll
	}
	c.runPool(poolOpts{
		indices: escIdx,
		schemes: c.schemeNames,
		record:  true,
		skip: func(i int) bool {
			return pol.MaxWall > 0 && demotable(i) &&
				time.Duration(escWall.Load()) >= pol.MaxWall
		},
		demote: func(i int) { c.demoteToModel(i, dec, modelRes) },
		onResult: func(i int, r *TraceResult, terr *TraceError) {
			if r != nil {
				var w time.Duration
				for _, o := range r.Schemes {
					w += o.Wall
				}
				escWall.Add(int64(w))
			}
		},
	})

	c.rep.Triage = buildTriageReport(pol, sched, keys, dec, isCal, c.results, modelRes, replayCount)
}

// demoteToModel finalizes a wall-budget-demoted trace with its tier-0
// model result, journaling the superseding decision first so a resumed
// campaign replays the demotion instead of re-spending the budget.
func (c *campaign) demoteToModel(i int, dec map[int]triage.Decision, modelRes []*TraceResult) {
	d := dec[i]
	d.Escalate = false
	d.Reason = triage.ReasonBudgetWall
	dec[i] = d
	if c.ckpt != nil {
		if err := c.ckpt.AppendDecision(d); err != nil {
			c.setInfraErr(fmt.Errorf("core: journaling triage demotion for %s: %w", d.Key, err))
			return
		}
	}
	r := modelRes[i]
	if r == nil {
		// No model pass ran for this trace (threshold ≤ 0, or a resumed
		// escalate decision): produce its tier-0 result now.
		runner := c.cfg.Runner
		if runner == nil {
			rn, err := NewRunner([]string{scheme.MFACT})
			if err != nil {
				c.setInfraErr(fmt.Errorf("core: %w", err))
				return
			}
			rn.SetCache(c.cfg.Cache)
			runner = rn.RunOne
		}
		var terr *TraceError
		r, terr = runIsolated(c.ps[i], c.ro, runner)
		if terr != nil {
			c.finish(i, nil, terr)
			return
		}
	}
	c.journal(i, r)
	c.finish(i, r, nil)
}

// TriageReport summarizes the tiered scheduler's decisions for one
// campaign.
type TriageReport struct {
	// Policy is the normalized policy the campaign ran under.
	Policy triage.Policy
	// ClassifierDown marks a campaign that degraded to escalate-always
	// because training or scoring failed; ClassifierErr is the cause.
	ClassifierDown bool   `json:",omitempty"`
	ClassifierErr  string `json:",omitempty"`
	// Calibration counts the traces that ran at full fidelity to train
	// the classifier; Flagged the classifier-driven escalations; Forced
	// the failure-driven ones (classifier down, model run failed);
	// Demoted the budget demotions; ModelOnly the traces whose tier-0
	// result is final. Replayed counts decisions adopted verbatim from
	// the checkpoint journal.
	Calibration, Flagged, Forced, Demoted, ModelOnly, Replayed int
	// Escalated is every non-calibration trace that ran the full scheme
	// set (Flagged + Forced, post-budget).
	Escalated int
	// EscalationRate is (Calibration + Escalated) / Total.
	EscalationRate float64
	// RescuedDiff is the Σ|DIFF| mass over full-fidelity traces — the
	// model error the escalations corrected.
	RescuedDiff float64
	// ModelWall sums the tier-0 MFACT walls; EscalationWall the
	// full-fidelity walls (calibration included).
	ModelWall, EscalationWall time.Duration
	// Decisions holds every decision in manifest order.
	Decisions []triage.Decision
}

// buildTriageReport assembles the report from the final decision set
// and results.
func buildTriageReport(pol triage.Policy, sched *triage.Scheduler, keys []string,
	dec map[int]triage.Decision, isCal map[int]bool,
	results, modelRes []*TraceResult, replayCount int) *TriageReport {
	t := &TriageReport{Policy: pol, Replayed: replayCount}
	if down, err := sched.Down(); down && sched.NeedsClassifier() {
		t.ClassifierDown = true
		if err != nil {
			t.ClassifierErr = err.Error()
		}
	}
	for i := range keys {
		d, ok := dec[i]
		if !ok {
			continue
		}
		t.Decisions = append(t.Decisions, d)
		r := results[i]
		switch {
		case isCal[i]:
			t.Calibration++
		case d.Escalate:
			t.Escalated++
			switch d.Reason {
			case triage.ReasonClassifierDown, triage.ReasonModelFailed:
				t.Forced++
			default:
				t.Flagged++
			}
		default:
			t.ModelOnly++
			if d.Reason == triage.ReasonBudgetCount || d.Reason == triage.ReasonBudgetWall {
				t.Demoted++
			}
		}
		if r == nil {
			continue
		}
		if isCal[i] || d.Escalate {
			for _, o := range r.Schemes {
				t.EscalationWall += o.Wall
			}
			if diff, ok := triageDiff(r); ok {
				t.RescuedDiff += diff
			}
		} else {
			t.ModelWall += r.ModelWall()
		}
		if mr := modelRes[i]; mr != nil && (isCal[i] || d.Escalate) {
			// The escalated trace's tier-0 pass was paid too.
			t.ModelWall += mr.ModelWall()
		}
	}
	if len(keys) > 0 {
		t.EscalationRate = float64(t.Calibration+t.Escalated) / float64(len(keys))
	}
	return t
}

// Summary is a one-line operator summary of the tiered run.
func (t *TriageReport) Summary() string {
	total := len(t.Decisions)
	s := fmt.Sprintf("triage: %d calibration + %d flagged + %d forced escalated of %d (%.1f%% full fidelity), %d model-only",
		t.Calibration, t.Flagged, t.Forced, total, 100*t.EscalationRate, t.ModelOnly)
	if t.Demoted > 0 {
		s += fmt.Sprintf(", %d demoted by budget", t.Demoted)
	}
	if t.Replayed > 0 {
		s += fmt.Sprintf(", %d decisions replayed from checkpoint", t.Replayed)
	}
	s += fmt.Sprintf("; rescued DIFF mass %.4f", t.RescuedDiff)
	if t.ClassifierDown {
		s += fmt.Sprintf(" [classifier down: escalate-always (%s)]", t.ClassifierErr)
	}
	return s
}

// triageX returns the classifier scoring vector for a completed run:
// the stored Table III features with the CL entry recomputed from the
// stored sensitivity sweep — the same convention BuildPredictionStudy
// trains with, so scoring and training always agree.
func triageX(r *TraceResult) []float64 {
	if r == nil || r.Features == nil || r.Model() == nil {
		return nil
	}
	x := append([]float64(nil), r.Features...)
	if clIdx := features.Index("CLncs"); clIdx >= 0 {
		if r.Model().CommSensitive() {
			x[clIdx] = 0
		} else {
			x[clIdx] = 1
		}
	}
	return x
}

// triageDiff is the DIFF label a full-fidelity run yields: the study's
// packet-flow DIFFtotal when that scheme ran, else the worst DIFF
// across whichever simulation schemes did.
func triageDiff(r *TraceResult) (float64, bool) {
	if d, ok := r.DiffTotal(scheme.PacketFlow); ok {
		return d, true
	}
	worst, found := 0.0, false
	for name, o := range r.Schemes {
		if o.Kind != scheme.KindSimulation || !o.OK {
			continue
		}
		if d, ok := r.DiffTotal(name); ok {
			found = true
			if d > worst {
				worst = d
			}
		}
	}
	return worst, found
}

// triageObservation converts a full-fidelity result into a training
// observation, when both the feature vector and the DIFF label exist.
func triageObservation(r *TraceResult) (classifier.Observation, bool) {
	if r == nil {
		return classifier.Observation{}, false
	}
	x := triageX(r)
	d, ok := triageDiff(r)
	if x == nil || !ok {
		return classifier.Observation{}, false
	}
	return classifier.Observation{ID: r.ID, X: x, DiffTotal: d}, true
}

// TriagePoints reduces a run-everything result set to frontier points
// (triage.Frontier): per trace, the scoring vector, the DIFF label,
// and the model-vs-simulation wall split. Traces without a usable
// label (failed simulations, a missing model run) are dropped.
func TriagePoints(rs []*TraceResult) []triage.Point {
	var pts []triage.Point
	for _, r := range rs {
		if r == nil {
			continue
		}
		x := triageX(r)
		d, ok := triageDiff(r)
		if x == nil || !ok {
			continue
		}
		var simWall time.Duration
		for _, o := range r.Schemes {
			if o.Kind == scheme.KindSimulation {
				simWall += o.Wall
			}
		}
		pts = append(pts, triage.Point{
			Key: CampaignKey(r.Params), X: x, Diff: d,
			ModelWall: r.ModelWall(), SimWall: simWall,
		})
	}
	return pts
}

// ParseTriageBudget parses the -triage-budget flag: a positive integer
// is an escalation-count cap, a duration string a wall-clock cap, and
// the two can be combined comma-separated ("12,30s").
func ParseTriageBudget(s string, pol *triage.Policy) error {
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var count int
		if _, err := fmt.Sscanf(part, "%d", &count); err == nil && fmt.Sprint(count) == part {
			if count <= 0 {
				return fmt.Errorf("triage budget count must be positive, got %q", part)
			}
			pol.MaxEscalations = count
			continue
		}
		d, err := time.ParseDuration(part)
		if err != nil {
			return fmt.Errorf("triage budget %q is neither a count nor a duration", part)
		}
		if d <= 0 {
			return fmt.Errorf("triage budget duration must be positive, got %q", part)
		}
		pol.MaxWall = d
	}
	return nil
}
