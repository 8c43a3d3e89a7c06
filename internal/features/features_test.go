package features

import (
	"testing"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/mfact"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/trace"
	"hpctradeoff/internal/workload"
)

func TestNamesCount(t *testing.T) {
	if got := len(Names()); got != 35 {
		t.Fatalf("have %d features, Table III lists 35", got)
	}
	seen := map[string]bool{}
	for _, n := range Names() {
		if seen[n] {
			t.Errorf("duplicate feature %q", n)
		}
		seen[n] = true
		if Index(n) < 0 {
			t.Errorf("Index(%q) = -1", n)
		}
	}
	if Index("nope") != -1 {
		t.Error("Index of unknown feature should be -1")
	}
}

func TestExtractHandBuilt(t *testing.T) {
	b := trace.NewBuilder(trace.Meta{App: "t", NumRanks: 2, RanksPerNode: 2})
	b.Compute(0, simtime.Second)
	b.Compute(1, simtime.Second)
	b.Send(0, 1, 0, 1000, trace.CommWorld)
	b.Recv(1, 0, 0, 1000, trace.CommWorld)
	tr, err := b.BuildColumns()
	if err != nil {
		t.Fatal(err)
	}
	// Stamp plausible measured times: sends/recvs take 1 ms.
	tr.SetEventTimes(0, 1, simtime.Second, simtime.Second+simtime.Millisecond)
	tr.SetEventTimes(1, 1, simtime.Second, simtime.Second+simtime.Millisecond)

	v := ExtractSource(tr, nil)
	get := func(name string) float64 { return v[Index(name)] }
	if get("R") != 2 || get("RN") != 2 || get("N") != 1 {
		t.Errorf("R/RN/N = %v/%v/%v", get("R"), get("RN"), get("N"))
	}
	if got := get("T"); got != 1.001 {
		t.Errorf("T = %v, want 1.001", got)
	}
	if got := get("Tcp"); got != 1.0 {
		t.Errorf("Tcp = %v, want 1.0 (per-rank average)", got)
	}
	if got := get("Tc"); got != 0.001 {
		t.Errorf("Tc = %v, want 0.001", got)
	}
	if got := get("TB"); got != 1000 {
		t.Errorf("TB = %v", got)
	}
	if got := get("TBp2p"); got != 1000 {
		t.Errorf("TBp2p = %v", got)
	}
	if got := get("NoM"); got != 1 {
		t.Errorf("NoM = %v", got)
	}
	if got := get("NoS"); got != 1 {
		t.Errorf("NoS = %v", got)
	}
	if got := get("NoR"); got != 1 {
		t.Errorf("NoR = %v", got)
	}
	if got := get("NoCALL"); got != 2 {
		t.Errorf("NoCALL = %v", got)
	}
	if got := get("CR"); got != 0.5 {
		t.Errorf("CR = %v, want 0.5 (1 dest over 2 ranks)", got)
	}
	if got := get("CRComm"); got != 1000 {
		t.Errorf("CRComm = %v", got)
	}
	if got := get("CLncs"); got != 1 {
		t.Errorf("CLncs = %v, want 1 with nil model", got)
	}
	if got := get("PoCP"); got < 0.99 || got > 1 {
		t.Errorf("PoCP = %v", got)
	}
}

func TestExtractOnRealTrace(t *testing.T) {
	p := workload.Params{App: "FT", Class: "S", Ranks: 16, Machine: "edison", Seed: 7}
	tr, err := workload.MaterializeColumns(p)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := machine.New(p.Machine, p.Ranks, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mfact.Model(tr, mach, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := ExtractSource(tr, res)
	if len(v) != 35 {
		t.Fatalf("vector has %d entries", len(v))
	}
	get := func(name string) float64 { return v[Index(name)] }
	if get("T") <= 0 || get("Tc") <= 0 || get("Tcp") <= 0 {
		t.Errorf("degenerate times: T=%v Tc=%v Tcp=%v", get("T"), get("Tc"), get("Tcp"))
	}
	if get("PoC")+get("PoCP") > 1.05 {
		t.Errorf("fractions exceed 1: PoC=%v PoCP=%v", get("PoC"), get("PoCP"))
	}
	if get("NoC") == 0 {
		t.Error("FT should have collectives")
	}
	if get("Tfcoll") <= 0 {
		t.Error("FT should have a first all-to-all time")
	}
	// FT at 16 ranks is comm-sensitive, so CLncs should be 0.
	if res.CommSensitive() && get("CLncs") != 0 {
		t.Errorf("CLncs = %v for a comm-sensitive app", get("CLncs"))
	}
	for i, x := range v {
		if x < 0 {
			t.Errorf("feature %s negative: %v", Names()[i], x)
		}
	}
}

func TestExtractBarrierAndWaitPaths(t *testing.T) {
	b := trace.NewBuilder(trace.Meta{App: "t2", NumRanks: 2, RanksPerNode: 2})
	for r := 0; r < 2; r++ {
		b.Collective(r, trace.OpBarrier, trace.CommWorld, 0, 0)
	}
	q0 := b.Irecv(0, 1, 0, 256, trace.CommWorld)
	q1 := b.Isend(1, 0, 0, 256, trace.CommWorld)
	b.Wait(0, q0)
	b.Wait(1, q1)
	for r := 0; r < 2; r++ {
		b.Collective(r, trace.OpAlltoall, trace.CommWorld, 0, 64)
		b.Collective(r, trace.OpBarrier, trace.CommWorld, 0, 0)
	}
	tr, err := b.BuildColumns()
	if err != nil {
		t.Fatal(err)
	}
	// Give the first barrier a visible duration on rank 0 so Tfbr > 0.
	for r := 0; r < tr.NumRanks(); r++ {
		for j := 0; j < tr.RankLen(r); j++ {
			at := simtime.Time(j) * simtime.Microsecond
			tr.SetEventTimes(r, j, at, at+simtime.Microsecond)
		}
	}
	v := ExtractSource(tr, nil)
	get := func(name string) float64 { return v[Index(name)] }
	if get("NoB") != 4 {
		t.Errorf("NoB = %v, want 4", get("NoB"))
	}
	if get("Tbr") <= 0 || get("Tfbr") <= 0 {
		t.Errorf("barrier times: Tbr=%v Tfbr=%v", get("Tbr"), get("Tfbr"))
	}
	if get("Tfcoll") <= 0 {
		t.Errorf("Tfcoll = %v, want > 0 (alltoall present)", get("Tfcoll"))
	}
	if get("NoIS") != 1 || get("NoIR") != 1 {
		t.Errorf("NoIS/NoIR = %v/%v", get("NoIS"), get("NoIR"))
	}
	if get("Tasyn") <= 0 {
		t.Errorf("Tasyn = %v", get("Tasyn"))
	}
	if get("PoBR") <= 0 || get("PoFBR") <= 0 || get("PoFCOLL") <= 0 {
		t.Errorf("fractions: PoBR=%v PoFBR=%v PoFCOLL=%v", get("PoBR"), get("PoFBR"), get("PoFCOLL"))
	}
}
