package mfact

import (
	"math/rand"
	"testing"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/trace"
)

func testMach(t *testing.T, ranks int) *machine.Config {
	t.Helper()
	m, err := machine.Edison(ranks, 4)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func build(t *testing.T, b *trace.Builder) *trace.Trace {
	t.Helper()
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestComputeOnlyPrediction(t *testing.T) {
	b := trace.NewBuilder(trace.Meta{App: "t", NumRanks: 4})
	for r := 0; r < 4; r++ {
		b.Compute(r, simtime.Time(r+1)*simtime.Millisecond)
	}
	tr := build(t, b)
	mach := testMach(t, 4)
	res, err := Model(tr, mach, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total() != 4*simtime.Millisecond {
		t.Errorf("Total = %v, want 4ms", res.Total())
	}
	if res.Comm() != 0 {
		t.Errorf("Comm = %v, want 0", res.Comm())
	}
	if res.Class != ComputationBound {
		t.Errorf("Class = %v, want computation-bound", res.Class)
	}
	// All bandwidth configs must predict the same total.
	for k, total := range res.Totals {
		if total != res.Total() {
			t.Errorf("config %d (%+v): total %v differs", k, res.Configs[k], total)
		}
	}
}

func TestHockneyPingPrediction(t *testing.T) {
	b := trace.NewBuilder(trace.Meta{App: "t", NumRanks: 8})
	const bytes = 1 << 20
	b.Send(0, 7, 0, bytes, trace.CommWorld)
	b.Recv(7, 0, 0, bytes, trace.CommWorld)
	tr := build(t, b)
	mach := testMach(t, 8)
	res, err := Model(tr, mach, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Receiver completion: arrival = sendPost + o + α + b/β, plus the
	// receiver-side call overhead (injection overlaps the transfer).
	xfer := simtime.TransferTime(bytes, mach.Beta)
	want := 2*mach.MPIOverhead + mach.Alpha + xfer
	if got := res.Total(); got != want {
		t.Errorf("Total = %v, want %v", got, want)
	}
	if res.Comm() <= 0 {
		t.Error("Comm = 0, want > 0")
	}
}

func TestBandwidthScalingMonotone(t *testing.T) {
	b := trace.NewBuilder(trace.Meta{App: "t", NumRanks: 16})
	for r := 0; r < 16; r++ {
		b.Collective(r, trace.OpAlltoall, trace.CommWorld, 0, 1<<20)
	}
	tr := build(t, b)
	res, err := Model(tr, testMach(t, 16), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Totals must decrease (weakly) as BWScale increases.
	type pt struct {
		scale float64
		total simtime.Time
	}
	var pts []pt
	for k, c := range res.Configs {
		if c.LatScale == 1 && c.CompScale == 1 {
			pts = append(pts, pt{c.BWScale, res.Totals[k]})
		}
	}
	for i := range pts {
		for j := range pts {
			if pts[i].scale < pts[j].scale && pts[i].total < pts[j].total {
				t.Errorf("bw %gx total %v < bw %gx total %v (should be slower)",
					pts[i].scale, pts[i].total, pts[j].scale, pts[j].total)
			}
		}
	}
	if res.Class != BandwidthBound && res.Class != CommunicationBound {
		t.Errorf("alltoall-heavy app classified %v", res.Class)
	}
	if !res.CommSensitive() {
		t.Error("alltoall-heavy app not communication-sensitive")
	}
}

func TestLatencyBoundClassification(t *testing.T) {
	// Many tiny blocking ping-pongs: latency-dominated.
	b := trace.NewBuilder(trace.Meta{App: "t", NumRanks: 8})
	for i := 0; i < 400; i++ {
		b.Send(0, 7, 0, 8, trace.CommWorld)
		b.Recv(7, 0, 0, 8, trace.CommWorld)
		b.Send(7, 0, 1, 8, trace.CommWorld)
		b.Recv(0, 7, 1, 8, trace.CommWorld)
	}
	tr := build(t, b)
	res, err := Model(tr, testMach(t, 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencySensitivity() <= SensitivityThreshold {
		t.Errorf("latency sensitivity = %v, want > 5%%", res.LatencySensitivity())
	}
	if res.Class != LatencyBound && res.Class != CommunicationBound {
		t.Errorf("Class = %v, want latency-bound", res.Class)
	}
}

func TestLoadImbalanceClassification(t *testing.T) {
	b := trace.NewBuilder(trace.Meta{App: "t", NumRanks: 8})
	for i := 0; i < 5; i++ {
		for r := 0; r < 8; r++ {
			d := simtime.Millisecond
			if r == 0 {
				d = 8 * simtime.Millisecond
			}
			b.Compute(r, d)
			b.Collective(r, trace.OpBarrier, trace.CommWorld, 0, 0)
		}
	}
	tr := build(t, b)
	res, err := Model(tr, testMach(t, 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != LoadImbalanceBound {
		t.Errorf("Class = %v (waitFrac=%.3f bwSens=%.3f), want load-imbalance-bound",
			res.Class, res.WaitFraction(), res.BandwidthSensitivity())
	}
	if res.CommSensitive() {
		t.Error("imbalanced app flagged communication-sensitive")
	}
}

func TestSweepMatchesSingleConfigRuns(t *testing.T) {
	tr := randomMixedTrace(t, rand.New(rand.NewSource(7)), 12)
	mach := testMach(t, 12)
	sweep, err := Model(tr, mach, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, cfg := range sweep.Configs {
		if k%3 != 0 {
			continue // spot-check a third of the grid
		}
		solo, err := Model(tr, mach, []NetConfig{Baseline, cfg})
		if err != nil {
			t.Fatal(err)
		}
		if solo.Totals[1] != sweep.Totals[k] {
			t.Errorf("config %+v: solo total %v != sweep total %v", cfg, solo.Totals[1], sweep.Totals[k])
		}
	}
}

// randomMixedTrace builds a random valid trace exercising p2p,
// nonblocking ops, and collectives.
func randomMixedTrace(t *testing.T, rng *rand.Rand, n int) *trace.Trace {
	t.Helper()
	b := trace.NewBuilder(trace.Meta{App: "rand", NumRanks: n})
	colls := []trace.Op{trace.OpBarrier, trace.OpBcast, trace.OpAllreduce, trace.OpAllgather, trace.OpAlltoall, trace.OpReduce}
	for step := 0; step < 12; step++ {
		switch rng.Intn(3) {
		case 0: // compute on all ranks
			for r := 0; r < n; r++ {
				b.Compute(r, simtime.Time(rng.Intn(1000))*simtime.Microsecond)
			}
		case 1: // random collective
			op := colls[rng.Intn(len(colls))]
			root := int32(rng.Intn(n))
			bytes := int64(rng.Intn(1 << 16))
			for r := 0; r < n; r++ {
				b.Collective(r, op, trace.CommWorld, root, bytes)
			}
		case 2: // neighbor exchange with nonblocking ops
			for r := 0; r < n; r++ {
				right := int32((r + 1) % n)
				left := int32((r - 1 + n) % n)
				rq := b.Irecv(r, left, int32(step), 4096, trace.CommWorld)
				sq := b.Isend(r, right, int32(step), 4096, trace.CommWorld)
				b.Waitall(r, rq, sq)
			}
		}
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestEventsMatchTraceSize(t *testing.T) {
	tr := randomMixedTrace(t, rand.New(rand.NewSource(3)), 8)
	res, err := Model(tr, testMach(t, 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != tr.NumEvents() {
		t.Errorf("Events = %d, want %d (one per trace event)", res.Events, tr.NumEvents())
	}
}

func TestSubCommunicatorCollectives(t *testing.T) {
	b := trace.NewBuilder(trace.Meta{App: "t", NumRanks: 8})
	sub := b.AddComm([]int32{0, 2, 4, 6})
	for _, r := range []int{0, 2, 4, 6} {
		b.Collective(r, trace.OpAllreduce, sub, 0, 4096)
	}
	for _, r := range []int{1, 3, 5, 7} {
		b.Compute(r, simtime.Millisecond)
	}
	tr := build(t, b)
	res, err := Model(tr, testMach(t, 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total() < simtime.Millisecond {
		t.Errorf("Total = %v, want ≥ 1ms", res.Total())
	}
}

func TestRejectsBadConfigs(t *testing.T) {
	b := trace.NewBuilder(trace.Meta{App: "t", NumRanks: 2})
	b.Compute(0, simtime.Millisecond)
	b.Compute(1, simtime.Millisecond)
	tr := build(t, b)
	mach := testMach(t, 2)
	if _, err := Model(tr, mach, []NetConfig{{BWScale: 2, LatScale: 1, CompScale: 1}}); err == nil {
		t.Error("non-baseline config 0 accepted")
	}
	if _, err := Model(tr, mach, []NetConfig{Baseline, {BWScale: -1, LatScale: 1, CompScale: 1}}); err == nil {
		t.Error("negative scale accepted")
	}
}

func TestCollectiveCostShapes(t *testing.T) {
	// Barrier cost grows logarithmically; alltoall linearly.
	b8 := collectiveCost(trace.OpBarrier, 8, 0, 0)
	b64 := collectiveCost(trace.OpBarrier, 64, 0, 0)
	if b8.rounds != 3 || b64.rounds != 6 {
		t.Errorf("barrier rounds: %d, %d; want 3, 6", b8.rounds, b64.rounds)
	}
	a8 := collectiveCost(trace.OpAlltoall, 8, 1<<20, 0)
	a64 := collectiveCost(trace.OpAlltoall, 64, 1<<20, 0)
	if a8.rounds != 7 || a64.rounds != 63 {
		t.Errorf("pairwise alltoall rounds: %d, %d", a8.rounds, a64.rounds)
	}
	// Small alltoall switches to Bruck: log rounds.
	s64 := collectiveCost(trace.OpAlltoall, 64, 64, 0)
	if s64.rounds != 6 {
		t.Errorf("bruck rounds = %d, want 6", s64.rounds)
	}
	// Bruck total bytes = b × Σ_k blocks(k) = b × (n/2)·log2(n) for pow2.
	if want := int64(64 * 32 * 6); s64.bytes != want {
		t.Errorf("bruck bytes = %d, want %d", s64.bytes, want)
	}
	// Allreduce non-power-of-two pays the fold.
	r16 := collectiveCost(trace.OpAllreduce, 16, 1024, 0)
	r17 := collectiveCost(trace.OpAllreduce, 17, 1024, 0)
	if r17.rounds != r16.rounds+2 {
		t.Errorf("allreduce rounds 16→%d, 17→%d; want +2 fold", r16.rounds, r17.rounds)
	}
	// Single-member collectives are free.
	if c := collectiveCost(trace.OpAllreduce, 1, 1024, 0); c.rounds != 0 || c.bytes != 0 {
		t.Errorf("n=1 cost = %+v", c)
	}
}

func TestClassStrings(t *testing.T) {
	for c := ComputationBound; c <= CommunicationBound; c++ {
		if c.String() == "" {
			t.Errorf("class %d has empty name", c)
		}
	}
}

func TestModelingFasterThanTraceGrowth(t *testing.T) {
	// Sanity: modeling cost is linear in events — a 2× trace runs ~2×
	// events, not more.
	rng := rand.New(rand.NewSource(11))
	tr1 := randomMixedTrace(t, rng, 8)
	res1, err := Model(tr1, testMach(t, 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Events != tr1.NumEvents() {
		t.Errorf("events %d != trace events %d", res1.Events, tr1.NumEvents())
	}
}
