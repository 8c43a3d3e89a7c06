package mpisim_test

import (
	"fmt"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/mfact"
	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/simnet"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/workload"
)

// Neighbour jobs' traffic on the shared fabric slows a replay down;
// MFACT's prediction has no term for it and stays where it was. This is
// the paper's §II-C case for simulation: a question a model cannot ask.
func ExampleReplay_background() {
	p := workload.Params{App: "FT", Class: "S", Ranks: 32, Machine: "edison", Seed: 21}
	tr, err := workload.MaterializeColumns(p)
	if err != nil {
		panic(err)
	}
	mach, err := machine.New(p.Machine, p.Ranks, 0)
	if err != nil {
		panic(err)
	}
	model, err := mfact.Model(tr, mach, nil)
	if err != nil {
		panic(err)
	}
	quiet, err := mpisim.Replay(tr, simnet.PacketFlow, mach, simnet.Config{}, mpisim.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("quiet fabric: MFACT %v, packet-flow %v\n", model.Total(), quiet.Total)
	for _, bg := range []mpisim.Background{
		{Sources: 4, MsgBytes: 64 << 10, Interval: 500 * simtime.Microsecond, Seed: 7},
		{Sources: 8, MsgBytes: 128 << 10, Interval: 400 * simtime.Microsecond, Seed: 7},
		{Sources: 16, MsgBytes: 256 << 10, Interval: 300 * simtime.Microsecond, Seed: 7},
	} {
		res, err := mpisim.Replay(tr, simnet.PacketFlow, mach, simnet.Config{}, mpisim.Options{Background: &bg})
		if err != nil {
			panic(err)
		}
		rate := float64(bg.Sources) * float64(bg.MsgBytes) / bg.Interval.Seconds() / 1e9
		fmt.Printf("%.1f GB/s background: packet-flow %v (%+.1f%%), MFACT %v\n",
			rate, res.Total, 100*(float64(res.Total)/float64(quiet.Total)-1), model.Total())
	}
	// Output:
	// quiet fabric: MFACT 29.43ms, packet-flow 29.58ms
	// 0.5 GB/s background: packet-flow 29.61ms (+0.1%), MFACT 29.43ms
	// 2.6 GB/s background: packet-flow 29.99ms (+1.4%), MFACT 29.43ms
	// 14.0 GB/s background: packet-flow 40.17ms (+35.8%), MFACT 29.43ms
}
