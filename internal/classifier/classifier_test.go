package classifier

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"

	"hpctradeoff/internal/features"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden confusion-matrix file instead of comparing")

const goldenConfusionPath = "testdata/confusion.golden"

// synthObs fabricates a plausible observation population: comm-
// sensitive traces mostly need simulation, insensitive ones mostly do
// not, with some overlap controlled by PoSYN and rank count (echoing
// the paper's selected predictors).
func synthObs(n int, seed int64) []Observation {
	rng := rand.New(rand.NewSource(seed))
	nf := len(features.Names())
	iCL := features.Index("CLncs")
	iPoSYN := features.Index("PoSYN")
	iR := features.Index("R")
	var out []Observation
	for i := 0; i < n; i++ {
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
		x[iR] = float64(int(64) << rng.Intn(5))
		// DIFF generative model: sensitive + high ranks + low PoSYN →
		// larger DIFF.
		diff := 0.002 + 0.004*rng.Float64()
		if cs {
			diff += 0.04*rng.Float64() + 0.03*(x[iR]/1024) - 0.02*x[iPoSYN]
			if diff < 0 {
				diff = 0.001
			}
		}
		out = append(out, Observation{ID: "synth", X: x, DiffTotal: diff})
	}
	return out
}

// trainedFixture is the one model the fixture tests below talk about:
// Train(synthObs(235, 7), 40, 5, 11), fitted once per test binary. The
// fit is the expensive part of those tests, and sharing it also makes
// every assertion hold of the same model.
var trainedFixture = sync.OnceValues(func() (*fixture, error) {
	obs := synthObs(235, 7)
	m, err := Train(obs, 40, 5, 11)
	if err != nil {
		return nil, err
	}
	return &fixture{obs: obs, m: m}, nil
})

type fixture struct {
	obs []Observation
	m   *Model
}

// trained returns the shared fixture; tests must not modify it.
func trained(t *testing.T) ([]Observation, *Model) {
	t.Helper()
	f, err := trainedFixture()
	if err != nil {
		t.Fatal(err)
	}
	return f.obs, f.m
}

func TestLabeling(t *testing.T) {
	if (Observation{DiffTotal: 0.019}).NeedsSimulation() {
		t.Error("1.9% should not need simulation")
	}
	if !(Observation{DiffTotal: 0.021}).NeedsSimulation() {
		t.Error("2.1% should need simulation")
	}
}

func TestBuildDatasetValidation(t *testing.T) {
	obs := synthObs(20, 1)
	d, err := BuildDataset(obs)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 20 || len(d.Cols) != 35 {
		t.Fatalf("dataset %dx%d", d.Len(), len(d.Cols))
	}
	obs[0].X = obs[0].X[:10]
	if _, err := BuildDataset(obs); err == nil {
		t.Error("short feature vector accepted")
	}
}

func TestNaiveVsTrainedModel(t *testing.T) {
	obs, m := trained(t)
	naive := NaiveSuccessRate(obs)
	if naive < 0.5 || naive > 0.98 {
		t.Fatalf("naive success rate = %v, expected informative baseline", naive)
	}
	sr := m.SuccessRate()
	if sr < naive-0.02 {
		t.Errorf("trained success %v worse than naive %v", sr, naive)
	}
	// CL must be the dominant predictor, as in Table IV.
	ranked := m.CV.Ranked()
	if len(ranked) == 0 || ranked[0].Name != "CLncs" {
		t.Errorf("top feature = %+v, want CLncs", ranked[:min(3, len(ranked))])
	}
	if ranked[0].MeanCoef >= 0 {
		t.Errorf("CLncs coefficient = %v, want negative (ncs → no simulation)", ranked[0].MeanCoef)
	}
	// Prediction from a full vector must work.
	pred := m.NeedsSimulation(obs[0].X)
	_ = pred
	if got := m.CV.TrimmedFN(); got < 0 || got > 1 {
		t.Errorf("FN rate = %v", got)
	}
}

// TestScoreStrictlyInterior pins the contract the triage scheduler's
// endpoint exactness rests on: Score never returns 0 or 1, even on
// feature vectors extreme enough to saturate the logistic link.
func TestScoreStrictlyInterior(t *testing.T) {
	obs, m := trained(t)
	nf := len(features.Names())
	extremes := [][]float64{make([]float64, nf), make([]float64, nf)}
	for j := range extremes[0] {
		extremes[0][j] = -1e6
		extremes[1][j] = 1e6
	}
	for _, o := range obs {
		extremes = append(extremes, o.X)
	}
	for i, x := range extremes {
		if p := m.Score(x); p <= 0 || p >= 1 {
			t.Fatalf("Score(vector %d) = %v, want strictly inside (0,1)", i, p)
		}
	}
}

// TestScoreMonotonePerFeature checks the logistic model's structural
// property the escalation ordering depends on: moving one selected
// feature in the direction of its fitted coefficient can only raise
// the predicted probability (and against it, only lower it), holding
// everything else fixed.
func TestScoreMonotonePerFeature(t *testing.T) {
	obs, m := trained(t)
	names, coefs := m.SelectedFeatures()
	if len(names) == 0 {
		t.Fatal("no features selected")
	}
	base := append([]float64(nil), obs[0].X...)
	for k, name := range names {
		idx := features.Index(name)
		if idx < 0 {
			t.Fatalf("selected feature %q not in the vector", name)
		}
		lo, hi := base[idx]-50, base[idx]+50
		x := append([]float64(nil), base...)
		prev := 0.0
		for step := 0; step <= 20; step++ {
			x[idx] = lo + (hi-lo)*float64(step)/20
			p := m.Score(x)
			if step > 0 {
				switch {
				case coefs[k] > 0 && p < prev:
					t.Fatalf("%s (coef %+.3g): Score fell from %v to %v as the feature rose", name, coefs[k], prev, p)
				case coefs[k] < 0 && p > prev:
					t.Fatalf("%s (coef %+.3g): Score rose from %v to %v as the feature rose", name, coefs[k], prev, p)
				}
			}
			prev = p
		}
	}
}

// TestConfusionGolden pins the trained model's full operating point on
// the synthetic population — selected features, coefficient signs,
// and the confusion matrix at the 0.5 decision cut — as a golden
// artifact. Regenerate deliberately with:
//
//	go test ./internal/classifier/ -run TestConfusionGolden -update
func TestConfusionGolden(t *testing.T) {
	obs, m := trained(t)
	tp, fp, tn, fn := 0, 0, 0, 0
	for _, o := range obs {
		switch pred, want := m.NeedsSimulation(o.X), o.NeedsSimulation(); {
		case pred && want:
			tp++
		case pred && !want:
			fp++
		case !pred && !want:
			tn++
		default:
			fn++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "population: 235 synthetic traces (seed 7), protocol: 40 CV runs, 5 vars, seed 11\n")
	names, coefs := m.SelectedFeatures()
	fmt.Fprintf(&b, "selected features:\n")
	for i, n := range names {
		fmt.Fprintf(&b, "  %-8s %+.6f\n", n, coefs[i])
	}
	fmt.Fprintf(&b, "confusion matrix at P > 0.5 (rows: predicted, cols: observed need-sim):\n")
	fmt.Fprintf(&b, "  TP=%d FP=%d\n  FN=%d TN=%d\n", tp, fp, fn, tn)
	fmt.Fprintf(&b, "in-sample accuracy: %.4f\n", float64(tp+tn)/235)
	fmt.Fprintf(&b, "cross-validated success rate: %.4f\n", m.SuccessRate())
	got := b.String()

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenConfusionPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenConfusionPath)
		return
	}
	want, err := os.ReadFile(goldenConfusionPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("confusion matrix drifted from golden artifact:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestTrainDeterministic(t *testing.T) {
	obs := synthObs(120, 3)
	a, err := Train(obs, 20, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(obs, 20, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.SuccessRate() != b.SuccessRate() {
		t.Error("training not deterministic")
	}
}
