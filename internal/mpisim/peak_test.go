package mpisim_test

import (
	"testing"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/simnet"
	"hpctradeoff/internal/workload"
)

// TestPacketPeakPending pins how deep the event queue gets on the
// all-to-all codes under the packet model. When every packet in flight
// was its own heap event, the first FT and IS traces of SuiteSmall at
// 64 ranks peaked at 24,173 pending events (FT.A.64.hopper) and 4,960
// (IS.A.64.cielito). With link queues only each queue's head is in the
// heap, and the peaks are 99 and 185.
func TestPacketPeakPending(t *testing.T) {
	const bound = 250
	for _, app := range []string{"FT", "IS"} {
		var p workload.Params
		for _, q := range workload.SuiteSmall(1, 64) {
			if q.App == app && q.Ranks == 64 {
				p = q
				break
			}
		}
		if p.App == "" {
			t.Fatalf("SuiteSmall has no 64-rank %s trace", app)
		}
		cols, err := workload.GenerateColumns(p)
		if err != nil {
			t.Fatal(err)
		}
		mach, err := machine.New(p.Machine, p.Ranks, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mpisim.Replay(cols, simnet.Packet, mach, simnet.Config{}, mpisim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.PeakPending > bound {
			t.Errorf("%s.%s.%d.%s: %d events pending at the peak, want at most %d",
				p.App, p.Class, p.Ranks, p.Machine, res.PeakPending, bound)
		}
	}
}
