package workload

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"hpctradeoff/internal/trace"
)

// zeroNoiseGolden mirrors testdata/zero_noise_golden.json, captured
// from the tree before Params grew the Noise field. It pins the whole
// stamped output — event count, measured totals, and an FNV-64a hash
// over every event's Entry/Exit pair in rank order — so the zero-noise
// path provably produces the same floats it did before the
// variability refactor (acceptance criterion: the sweep's zero point
// is bit-identical to the historical ground truth).
type zeroNoiseGolden struct {
	App          string
	Class        string
	Machine      string
	Ranks        int
	Seed         int64
	Events       int
	Measured     int64
	MeasuredComm int64
	TimesHash    uint64
}

func stampedFingerprint(t *testing.T, p Params) zeroNoiseGolden {
	t.Helper()
	c, err := MaterializeColumns(p)
	if err != nil {
		t.Fatalf("MaterializeColumns(%+v): %v", p, err)
	}
	h := fnv.New64a()
	var ev trace.Event
	for r := 0; r < c.NumRanks(); r++ {
		for i := 0; i < c.RankLen(r); i++ {
			c.EventAt(r, i, &ev)
			fmt.Fprintf(h, "%d,%d;", int64(ev.Entry), int64(ev.Exit))
		}
	}
	return zeroNoiseGolden{
		App: p.App, Class: p.Class, Machine: p.Machine, Ranks: p.Ranks, Seed: p.Seed,
		Events:       c.NumEvents(),
		Measured:     int64(trace.SourceMeasuredTotal(c)),
		MeasuredComm: int64(trace.SourceMeasuredComm(c)),
		TimesHash:    h.Sum64(),
	}
}

func TestZeroNoiseGroundTruthUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("materializes four traces")
	}
	data, err := os.ReadFile("testdata/zero_noise_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []zeroNoiseGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, w := range want {
		p := Params{App: w.App, Class: w.Class, Ranks: w.Ranks, Machine: w.Machine, Seed: w.Seed}
		got := stampedFingerprint(t, p)
		if got != w {
			t.Errorf("%s.%s.x%d.%s.s%d: stamped output drifted from pre-Noise golden:\n got %+v\nwant %+v",
				w.App, w.Class, w.Ranks, w.Machine, w.Seed, got, w)
		}
	}
}

// TestNoiseChangesGroundTruth is the other direction: each axis at a
// non-zero amplitude must actually move the measured times (otherwise
// the variability study would sweep a dead knob), and distinct noise
// seeds must resample the platform.
func TestNoiseChangesGroundTruth(t *testing.T) {
	// 64 ranks span three edison nodes, so messages actually cross
	// fabric links (16 ranks would fit on one node and see only
	// loopback, making LinkJitter a no-op by construction).
	base := Params{App: "CG", Class: "S", Ranks: 64, Machine: "edison", Seed: 42}
	ref := stampedFingerprint(t, base)
	axes := map[string]Noise{
		"link-jitter": {LinkJitter: 0.3},
		"node-hetero": {NodeHetero: 0.3},
		"os-noise":    {OSNoise: 4},
	}
	for name, n := range axes {
		p := base
		p.Noise = n
		got := stampedFingerprint(t, p)
		if got.TimesHash == ref.TimesHash {
			t.Errorf("%s: noise %+v left stamped times bit-identical to the zero-noise trace", name, n)
		}
		if got.Events != ref.Events {
			t.Errorf("%s: noise changed the program structure (%d events vs %d) — it must only perturb stamping",
				name, got.Events, ref.Events)
		}
		reseeded := p
		reseeded.Noise.Seed = 1
		if r := stampedFingerprint(t, reseeded); r.TimesHash == got.TimesHash {
			t.Errorf("%s: Noise.Seed=1 did not resample the platform draws", name)
		}
	}
}
