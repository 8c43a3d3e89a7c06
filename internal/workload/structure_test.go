package workload

import (
	"testing"

	"hpctradeoff/internal/trace"
)

// Structural tests: each generator must reproduce its code's published
// communication pattern, not merely produce a valid trace.

func genTrace(t *testing.T, app string, ranks int) *trace.Columns {
	t.Helper()
	tr, err := GenerateColumns(Params{App: app, Class: "A", Ranks: ranks, Machine: "edison", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// opCount tallies per-op event counts over the whole trace.
func opCount(tr *trace.Columns) map[trace.Op]int {
	out := map[trace.Op]int{}
	for r := 0; r < tr.NumRanks(); r++ {
		evs := rankEvents(tr, r)
		for i := range evs {
			out[evs[i].Op]++
		}
	}
	return out
}

// p2pPeers returns the distinct send destinations of a rank.
func p2pPeers(tr *trace.Columns, r int) map[int32]bool {
	out := map[int32]bool{}
	for _, e := range rankEvents(tr, r) {
		if e.Op == trace.OpSend || e.Op == trace.OpIsend {
			out[e.Peer] = true
		}
	}
	return out
}

func TestCGHypercubePartners(t *testing.T) {
	tr := genTrace(t, "CG", 64)
	peers := p2pPeers(tr, 0)
	// Rank 0's partners must be exactly the hypercube neighbors
	// 1, 2, 4, 8, 16, 32.
	want := map[int32]bool{1: true, 2: true, 4: true, 8: true, 16: true, 32: true}
	for p := range want {
		if !peers[p] {
			t.Errorf("rank 0 missing hypercube partner %d", p)
		}
	}
	for p := range peers {
		if !want[p] {
			t.Errorf("rank 0 has non-hypercube partner %d", p)
		}
	}
	if c := opCount(tr)[trace.OpAllreduce]; c == 0 {
		t.Error("CG has no allreduces (dot products)")
	}
}

func TestLULESHNeighborhood(t *testing.T) {
	tr := genTrace(t, "LULESH", 64) // 4×4×4 grid: interior ranks have 26 neighbors
	peers := p2pPeers(tr, 21)       // (1,1,1) is interior
	if len(peers) != 26 {
		t.Errorf("interior rank has %d distinct neighbors, want 26", len(peers))
	}
	// Face payloads must exceed corner payloads.
	var face, corner int64
	for _, e := range rankEvents(tr, 21) {
		if e.Op != trace.OpIsend {
			continue
		}
		if e.Bytes > face {
			face = e.Bytes
		}
		if corner == 0 || e.Bytes < corner {
			corner = e.Bytes
		}
	}
	if face <= corner {
		t.Errorf("face payload %d not above corner payload %d", face, corner)
	}
}

func TestFTAlltoallStructure(t *testing.T) {
	tr := genTrace(t, "FT", 64)
	c := opCount(tr)
	if c[trace.OpAlltoall] != 64*6 { // one per rank per default iteration
		t.Errorf("alltoall count = %d, want %d", c[trace.OpAlltoall], 64*6)
	}
	if c[trace.OpSend]+c[trace.OpIsend] != 0 {
		t.Error("FT should communicate only via collectives")
	}
}

func TestISAlltoallvUneven(t *testing.T) {
	tr := genTrace(t, "IS", 16)
	var sizes []int64
	for _, e := range rankEvents(tr, 0) {
		if e.Op == trace.OpAlltoallv {
			sizes = append(sizes, e.SendBytes...)
			break
		}
	}
	if len(sizes) != 16 {
		t.Fatalf("alltoallv has %d counts", len(sizes))
	}
	var lo, hi int64 = 1 << 62, 0
	for i, s := range sizes {
		if i == 0 {
			continue // self entry is zero
		}
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	if hi == lo {
		t.Error("IS buckets are perfectly even; want ±40% spread")
	}
	if float64(hi) > 3*float64(lo) {
		t.Errorf("IS bucket spread too extreme: %d..%d", lo, hi)
	}
}

func TestLUWavefrontUsesBlockingPipeline(t *testing.T) {
	tr := genTrace(t, "LU", 16)
	c := opCount(tr)
	if c[trace.OpSend] == 0 || c[trace.OpRecv] == 0 {
		t.Error("LU should use blocking sends/recvs (pipeline)")
	}
	// Corner rank 0 sends east and south only in the forward sweep.
	peers := p2pPeers(tr, 0)
	if len(peers) != 2 {
		t.Errorf("LU corner rank has %d peers, want 2 (east, south)", len(peers))
	}
}

func TestBigFFTUsesSubCommunicators(t *testing.T) {
	tr := genTrace(t, "BigFFT", 16)
	if tr.Comms.Len() < 3 {
		t.Fatalf("BigFFT has %d communicators, want world + rows + cols", tr.Comms.Len())
	}
	// All alltoalls must run on sub-communicators, never on world.
	for r := 0; r < tr.NumRanks(); r++ {
		for _, e := range rankEvents(tr, r) {
			if e.Op == trace.OpAlltoall && e.Comm == trace.CommWorld {
				t.Fatal("BigFFT alltoall on MPI_COMM_WORLD; want row/col comms")
			}
		}
	}
}

func TestCRIrregularSizes(t *testing.T) {
	tr := genTrace(t, "CrystalRouter", 32)
	sizes := map[int64]bool{}
	for _, e := range rankEvents(tr, 3) {
		if e.Op == trace.OpIsend {
			sizes[e.Bytes] = true
		}
	}
	if len(sizes) < 4 {
		t.Errorf("CR rank sends only %d distinct sizes; want irregular mix", len(sizes))
	}
}

func TestEPAlmostNoCommunication(t *testing.T) {
	tr := genTrace(t, "EP", 64)
	c := opCount(tr)
	comm := 0
	for op, n := range c {
		if op != trace.OpCompute {
			comm += n
		}
	}
	if comm != 64*3 { // three allreduces per rank
		t.Errorf("EP comm events = %d, want %d", comm, 64*3)
	}
}

func TestMultiGridShrinkingCommunicators(t *testing.T) {
	tr := genTrace(t, "MultiGrid", 64)
	if !tr.Meta.UsesCommSplit {
		t.Fatal("MultiGrid must flag comm split")
	}
	// Level communicators shrink: world(64) plus 64, 32, 16, 8.
	sizes := []int{}
	for c := 1; c < tr.Comms.Len(); c++ {
		sizes = append(sizes, tr.Comms.Size(trace.CommID(c)))
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] >= sizes[i-1] {
			t.Errorf("level comms do not shrink: %v", sizes)
		}
	}
}

func TestCMCImbalancePersistsAcrossIterations(t *testing.T) {
	tr := genTrace(t, "CMC", 16)
	// The same ranks should be slow in every iteration (a skew profile,
	// not per-iteration noise): compare per-rank total compute.
	var tot [16]float64
	for r := 0; r < 16; r++ {
		for _, e := range rankEvents(tr, r) {
			if e.Op == trace.OpCompute {
				tot[r] += e.Duration().Seconds()
			}
		}
	}
	lo, hi := tot[0], tot[0]
	for _, v := range tot {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi/lo < 1.10 {
		t.Errorf("CMC imbalance %.3f too small; want ≥ 1.10× spread", hi/lo)
	}
}

func TestDTPipelineRoles(t *testing.T) {
	tr := genTrace(t, "DT", 24)
	// Sources (0-7) only send; sinks (16-23) only receive.
	for r := 0; r < 8; r++ {
		for _, e := range rankEvents(tr, r) {
			if e.Op == trace.OpRecv || e.Op == trace.OpIrecv {
				t.Fatalf("source rank %d receives", r)
			}
		}
	}
	for r := 16; r < 24; r++ {
		for _, e := range rankEvents(tr, r) {
			if e.Op == trace.OpSend || e.Op == trace.OpIsend {
				t.Fatalf("sink rank %d sends", r)
			}
		}
	}
}
