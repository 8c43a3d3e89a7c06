package triage

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"hpctradeoff/internal/classifier"
	"hpctradeoff/internal/features"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden frontier file instead of comparing")

const goldenFrontierPath = "testdata/frontier.golden"

// synthPoints fabricates a run-everything result population shaped
// like the study's: comm-sensitive traces mostly exceed the 2% DIFF
// threshold, insensitive ones mostly do not, simulation wall clock
// dominates the model pass. Deterministic in seed.
func synthPoints(n int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	nf := len(features.Names())
	iCL := features.Index("CLncs")
	iPoSYN := features.Index("PoSYN")
	iR := features.Index("R")
	pts := make([]Point, n)
	for i := range pts {
		x := make([]float64, nf)
		for j := range x {
			x[j] = rng.Float64()
		}
		cs := rng.Float64() < 0.45
		if cs {
			x[iCL] = 0
		} else {
			x[iCL] = 1
		}
		x[iPoSYN] = rng.Float64() * 0.5
		ranks := int(64) << rng.Intn(5)
		x[iR] = float64(ranks)
		diff := 0.002 + 0.004*rng.Float64()
		if cs {
			diff += 0.04*rng.Float64() + 0.03*(x[iR]/1024) - 0.02*x[iPoSYN]
			if diff < 0 {
				diff = 0.001
			}
		}
		pts[i] = Point{
			Key:       fmt.Sprintf("trace-%03d", i),
			X:         x,
			Diff:      diff,
			ModelWall: time.Millisecond,
			SimWall:   time.Duration(ranks) * 2 * time.Millisecond,
		}
	}
	return pts
}

func candidates(pts []Point) []Candidate {
	cs := make([]Candidate, len(pts))
	for i, p := range pts {
		cs[i] = Candidate{Key: p.Key, X: p.X}
	}
	return cs
}

// trainedScheduler trains a scheduler on the first k synthetic points
// and returns it with the remainder as candidates.
func trainedScheduler(t *testing.T, thr float64, n, cal int, seed int64) (*Scheduler, []Point) {
	t.Helper()
	pts := synthPoints(n, seed)
	s := New(Policy{Threshold: thr, Calibration: cal, Seed: seed}.Normalize(n))
	var obs []classifier.Observation
	for _, p := range pts[:cal] {
		obs = append(obs, classifier.Observation{ID: p.Key, X: p.X, DiffTotal: p.Diff})
	}
	if err := s.Train(obs); err != nil {
		t.Fatalf("Train: %v", err)
	}
	return s, pts[cal:]
}

func TestPolicyNormalize(t *testing.T) {
	p := Policy{Threshold: 0.5}.Normalize(235)
	if p.Calibration != 23 {
		t.Errorf("Calibration = %d, want n/10 = 23", p.Calibration)
	}
	if p.CVRuns != defaultCVRuns || p.MaxVars != defaultMaxVars {
		t.Errorf("defaults not applied: %+v", p)
	}
	if got := (Policy{Threshold: 0.5}).Normalize(40).Calibration; got != defaultCalibrationLo {
		t.Errorf("small-manifest Calibration = %d, want floor %d", got, defaultCalibrationLo)
	}
	if got := (Policy{Threshold: 0.5, Calibration: 99}).Normalize(10).Calibration; got != 10 {
		t.Errorf("Calibration not clamped to n: %d", got)
	}
}

func TestPolicyEqualIsTheResumeGate(t *testing.T) {
	base := Policy{Threshold: 0.5, Seed: 1}.Normalize(100)
	if !base.Equal(base) {
		t.Fatal("policy not equal to itself")
	}
	variants := []Policy{
		{Threshold: 0.4, Seed: 1},
		{Threshold: 0.5, Seed: 2},
		{Threshold: 0.5, Seed: 1, MaxEscalations: 3},
		{Threshold: 0.5, Seed: 1, MaxWall: time.Second},
		{Threshold: 0.5, Seed: 1, Calibration: 7},
	}
	for _, v := range variants {
		if base.Equal(v.Normalize(100)) {
			t.Errorf("policy %s should differ from %s", v, base)
		}
	}
}

// TestCalibrationIndices pins the split's contract: deterministic in
// (n, policy), sorted, unique, the configured size, spread across the
// manifest rather than one prefix, and absent at the endpoints.
func TestCalibrationIndices(t *testing.T) {
	s := New(Policy{Threshold: 0.5, Calibration: 20}.Normalize(200))
	a, b := s.CalibrationIndices(200), s.CalibrationIndices(200)
	if len(a) != 20 {
		t.Fatalf("len = %d, want 20", len(a))
	}
	seen := map[int]bool{}
	for i, idx := range a {
		if idx != b[i] {
			t.Fatal("split not deterministic")
		}
		if seen[idx] {
			t.Fatalf("duplicate index %d", idx)
		}
		seen[idx] = true
		if i > 0 && a[i-1] >= idx {
			t.Fatal("split not sorted")
		}
		if idx < 0 || idx >= 200 {
			t.Fatalf("index %d out of range", idx)
		}
	}
	// Coverage: the last pick must land in the manifest's final decile.
	if a[len(a)-1] < 180 {
		t.Errorf("split is prefix-biased: last index %d", a[len(a)-1])
	}
	for _, thr := range []float64{0, 1, -0.5, 1.5} {
		if got := New(Policy{Threshold: thr}.Normalize(200)).CalibrationIndices(200); got != nil {
			t.Errorf("threshold %g must have no calibration split, got %v", thr, got)
		}
	}
}

// TestPlanEndpoints pins the bit-identity contract: at the endpoints
// the classifier is bypassed entirely — an untrained (or broken)
// scheduler still plans run-everything and model-only exactly.
func TestPlanEndpoints(t *testing.T) {
	pts := synthPoints(10, 1)
	cands := candidates(pts)
	cands[3].X = nil // a failed tier-0 model run

	for _, d := range New(Policy{Threshold: 0, Seed: 1}.Normalize(10)).Plan(cands) {
		if !d.Escalate || d.Reason != ReasonEscalateAll || d.Score != 0 {
			t.Fatalf("threshold 0: %+v, want unscored escalation", d)
		}
	}
	for i, d := range New(Policy{Threshold: 1, Seed: 1}.Normalize(10)).Plan(cands) {
		if i == 3 {
			if !d.Escalate || d.Reason != ReasonModelFailed {
				t.Fatalf("model-only endpoint must still escalate a failed model run: %+v", d)
			}
			continue
		}
		if d.Escalate || d.Reason != ReasonModelOnly {
			t.Fatalf("threshold 1: %+v, want model-only", d)
		}
	}
}

// TestPlanThresholds checks the scored interior: every decision is
// consistent with its own score and the threshold, scores lie strictly
// in (0,1), and raising the threshold only shrinks the escalated set
// (monotonicity of the frontier in the threshold).
func TestPlanThresholds(t *testing.T) {
	s, rest := trainedScheduler(t, 0.5, 200, 40, 3)
	cands := candidates(rest)
	escAt := func(thr float64) map[string]bool {
		s2 := New(Policy{Threshold: thr, Calibration: 40, Seed: 3}.Normalize(200))
		s2.model, s2.down, s2.downErr = s.model, s.down, s.downErr
		set := map[string]bool{}
		for _, d := range s2.Plan(cands) {
			if d.Reason == ReasonFlagged || d.Reason == ReasonCleared {
				if d.Score <= 0 || d.Score >= 1 {
					t.Fatalf("score %v outside (0,1) for %s", d.Score, d.Key)
				}
				if d.Escalate != (d.Score >= thr) {
					t.Fatalf("decision %+v inconsistent with threshold %g", d, thr)
				}
			}
			if d.Escalate {
				set[d.Key] = true
			}
		}
		return set
	}
	prev := escAt(0.1)
	for _, thr := range []float64{0.3, 0.5, 0.7, 0.9} {
		cur := escAt(thr)
		for k := range cur {
			if !prev[k] {
				t.Fatalf("trace %s escalates at threshold %g but not at a lower one", k, thr)
			}
		}
		prev = cur
	}
}

// TestPlanCountBudget checks the greedy count budget: only the
// MaxEscalations highest-scored flagged traces stay escalated, the
// rest demote to budget-count, and forced escalations are exempt.
func TestPlanCountBudget(t *testing.T) {
	s, rest := trainedScheduler(t, 0.2, 200, 40, 3)
	cands := candidates(rest)
	cands[0].X = nil // forced: model run failed
	free := s.Plan(cands)
	flagged := 0
	for _, d := range free {
		if d.Reason == ReasonFlagged {
			flagged++
		}
	}
	if flagged < 4 {
		t.Fatalf("need ≥ 4 flagged traces to exercise the budget, have %d", flagged)
	}

	budget := flagged / 2
	s2 := New(Policy{Threshold: 0.2, MaxEscalations: budget, Calibration: 40, Seed: 3}.Normalize(200))
	s2.model, s2.down, s2.downErr = s.model, s.down, s.downErr
	got := s2.Plan(cands)
	var kept, demoted []Decision
	for i, d := range got {
		switch d.Reason {
		case ReasonFlagged:
			kept = append(kept, d)
		case ReasonBudgetCount:
			if d.Escalate {
				t.Fatalf("demoted decision still escalates: %+v", d)
			}
			demoted = append(demoted, d)
		case ReasonModelFailed:
			if i != 0 || !d.Escalate {
				t.Fatalf("forced escalation was budget-demoted: %+v", d)
			}
		}
	}
	if len(kept) != budget || len(demoted) != flagged-budget {
		t.Fatalf("budget %d kept %d and demoted %d of %d flagged", budget, len(kept), len(demoted), flagged)
	}
	for _, k := range kept {
		for _, d := range demoted {
			if d.Score > k.Score {
				t.Fatalf("kept %s (%.3f) but demoted higher-scored %s (%.3f)", k.Key, k.Score, d.Key, d.Score)
			}
		}
	}
}

// TestTrainFailureDegrades pins the never-skip-silently posture for a
// training failure: too few observations marks the scheduler down and
// the whole plan escalates.
func TestTrainFailureDegrades(t *testing.T) {
	s := New(Policy{Threshold: 0.5, Calibration: 2, Seed: 1}.Normalize(10))
	pts := synthPoints(10, 1)
	var obs []classifier.Observation
	for _, p := range pts[:2] {
		obs = append(obs, classifier.Observation{ID: p.Key, X: p.X, DiffTotal: p.Diff})
	}
	if err := s.Train(obs); err == nil {
		t.Fatal("training on 2 observations should fail")
	}
	if down, err := s.Down(); !down || err == nil {
		t.Fatal("scheduler not marked down after training failure")
	}
	for _, d := range s.Plan(candidates(pts[2:])) {
		if !d.Escalate || d.Reason != ReasonClassifierDown {
			t.Fatalf("down scheduler planned %+v, want forced escalation", d)
		}
	}
}

// TestTrainOneLabelDegrades trains on a calibration split large enough
// to fit but whose traces all agree with the model (every DIFF under
// the 2% label cut): with no evidence for the other class the classifier
// must refuse to train, and the scheduler must plan as if it were down.
func TestTrainOneLabelDegrades(t *testing.T) {
	pts := synthPoints(40, 1)
	s := New(Policy{Threshold: 0.5, Calibration: 20, Seed: 1}.Normalize(len(pts)))
	var obs []classifier.Observation
	for _, p := range pts[:20] {
		obs = append(obs, classifier.Observation{ID: p.Key, X: p.X, DiffTotal: 0.001})
	}
	if err := s.Train(obs); !errors.Is(err, classifier.ErrOneLabel) {
		t.Fatalf("training on one label: err = %v, want classifier.ErrOneLabel", err)
	}
	if down, err := s.Down(); !down || !errors.Is(err, classifier.ErrOneLabel) {
		t.Fatalf("Down() = %v, %v after a one-label split", down, err)
	}
	for _, d := range s.Plan(candidates(pts[20:])) {
		if !d.Escalate || d.Reason != ReasonClassifierDown {
			t.Fatalf("one-label scheduler planned %+v, want forced escalation", d)
		}
	}
}

// TestScoreFaultDegradesRetroactively feeds one mid-plan candidate a
// non-finite feature vector, which the classifier scores as NaN, and
// asserts the degradation is retroactive: candidates already cleared
// earlier in the same plan are flipped to forced escalation too.
func TestScoreFaultDegradesRetroactively(t *testing.T) {
	s, rest := trainedScheduler(t, 0.5, 200, 40, 3)
	cands := candidates(rest)

	// Break the 5th Score call of this plan.
	nan := make([]float64, len(cands[4].X))
	for i := range nan {
		nan[i] = math.NaN()
	}
	cands[4].X = nan

	for _, d := range s.Plan(cands) {
		if !d.Escalate || d.Reason != ReasonClassifierDown {
			t.Fatalf("after a scoring fault every decision must force-escalate, got %+v", d)
		}
	}
	if down, err := s.Down(); !down || err == nil {
		t.Fatal("scoring fault did not mark the scheduler down")
	}
}

// TestApplyWallBudget checks the post-hoc wall budget mirror: the
// spend is greedy in descending score, demotions take the lowest
// scores, and a zero budget is a no-op.
func TestApplyWallBudget(t *testing.T) {
	pts := []Point{
		{Key: "a", ModelWall: time.Millisecond, SimWall: 10 * time.Millisecond},
		{Key: "b", ModelWall: time.Millisecond, SimWall: 10 * time.Millisecond},
		{Key: "c", ModelWall: time.Millisecond, SimWall: 10 * time.Millisecond},
		{Key: "d", ModelWall: time.Millisecond, SimWall: 10 * time.Millisecond},
	}
	mk := func() []Decision {
		return []Decision{
			{Key: "a", Score: 0.9, Escalate: true, Reason: ReasonFlagged},
			{Key: "b", Score: 0.3, Escalate: true, Reason: ReasonFlagged},
			{Key: "c", Score: 0.6, Escalate: true, Reason: ReasonFlagged},
			{Key: "d", Escalate: true, Reason: ReasonClassifierDown},
		}
	}
	ds := applyWallBudget(mk(), pts, 15*time.Millisecond)
	// 11ms spends under the 15ms budget on "a" (0.9); "c" (0.6) pushes
	// it to 22ms which exceeds it, so only "b" demotes.
	if !ds[0].Escalate || !ds[2].Escalate {
		t.Fatalf("high scores demoted: %+v", ds)
	}
	if ds[1].Escalate || ds[1].Reason != ReasonBudgetWall {
		t.Fatalf("lowest score not demoted: %+v", ds[1])
	}
	if !ds[3].Escalate || ds[3].Reason != ReasonClassifierDown {
		t.Fatalf("forced escalation demoted by wall budget: %+v", ds[3])
	}
	for i, d := range applyWallBudget(mk(), pts, 0) {
		if !d.Escalate {
			t.Fatalf("zero budget demoted %+v at %d", d, i)
		}
	}
}

// TestFrontierEndpoints checks the sweep's anchor rows: threshold 0
// escalates everything (zero accuracy loss, zero wall saved beyond
// rounding), threshold 1 escalates nothing (maximum saving, all DIFF
// mass missed), and interior rows land between them.
func TestFrontierEndpoints(t *testing.T) {
	pts := synthPoints(200, 3)
	rows, err := Frontier(pts, Policy{Seed: 3}, []float64{0, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	run, mid, mdl := rows[0], rows[1], rows[2]
	if run.Escalated != 200 || run.Calibration != 0 || run.MissedDiff != 0 || run.MissedNeedSim != 0 {
		t.Fatalf("run-everything row: %+v", run)
	}
	if run.WallSaved != 0 {
		t.Fatalf("run-everything saved %v wall", run.WallSaved)
	}
	if mdl.Escalated != 0 || mdl.Calibration != 0 || mdl.RescuedDiff != 0 {
		t.Fatalf("model-only row: %+v", mdl)
	}
	if mdl.WallSaved <= 0.9 {
		t.Fatalf("model-only saved only %v of the wall", mdl.WallSaved)
	}
	if mid.ClassifierDown {
		t.Fatalf("interior row degraded: %+v", mid)
	}
	if mid.WallSaved <= run.WallSaved || mid.WallSaved >= mdl.WallSaved {
		t.Fatalf("interior wall saving %v outside (%v, %v)", mid.WallSaved, run.WallSaved, mdl.WallSaved)
	}
	if mid.MissedDiff <= 0 || mid.MissedDiff >= mdl.MissedDiff {
		t.Fatalf("interior missed mass %v outside (0, %v)", mid.MissedDiff, mdl.MissedDiff)
	}
	if mid.Calibration == 0 {
		t.Fatal("interior row has no calibration split")
	}
}

// TestFrontierGolden pins the full rendered sweep over the synthetic
// population — the classifier's confusion-driven operating points,
// escalation rates, and wall savings — as a golden artifact.
// Regenerate deliberately with:
//
//	go test ./internal/triage/ -run TestFrontierGolden -update
func TestFrontierGolden(t *testing.T) {
	pts := synthPoints(200, 3)
	rows, err := Frontier(pts, Policy{Seed: 3}, []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 1})
	if err != nil {
		t.Fatal(err)
	}
	got := RenderFrontier(rows)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFrontierPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenFrontierPath)
		return
	}
	want, err := os.ReadFile(goldenFrontierPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("frontier drifted from golden artifact:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
