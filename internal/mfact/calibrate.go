package mfact

import (
	"fmt"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/simnet"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/trace"
)

// Calibration fits the Hockney parameters the way the real MFACT gets
// them: run ping-pong benchmarks on the target system (here: on its
// detailed simulator) over a range of message sizes and least-squares
// fit one-way time ≈ α + bytes/β. This closes the loop between the
// machine's configured (α, β) and what the simulators actually deliver
// at zero load.

// Calibration holds fitted Hockney parameters.
type Calibration struct {
	// Alpha is the fitted zero-size one-way latency.
	Alpha simtime.Time
	// Beta is the fitted asymptotic bandwidth in bytes/s.
	Beta float64
	// Samples holds the (bytes, one-way time) measurements the fit used.
	Samples []CalSample
}

// CalSample is one ping-pong measurement.
type CalSample struct {
	Bytes  int64
	OneWay simtime.Time
}

// Calibrate measures ping-pong times between the two most distant
// ranks of a small job on the machine, using the given simulation
// model, and fits (α, β). sizes defaults to a 64 B – 1 MiB sweep.
func Calibrate(mach *machine.Config, model simnet.Model, sizes []int64) (*Calibration, error) {
	if len(mach.NodeOf) < 2 {
		return nil, fmt.Errorf("mfact: calibration needs ≥ 2 ranks")
	}
	if sizes == nil {
		sizes = []int64{64, 256, 1024, 4096, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
	}
	cal := &Calibration{}
	peer := int32(len(mach.NodeOf) - 1)
	for _, sz := range sizes {
		// Build a one-round ping-pong trace and replay it; the one-way
		// time is half the round trip.
		b := trace.NewBuilder(trace.Meta{App: "pingpong", NumRanks: len(mach.NodeOf)})
		const rounds = 4
		for i := 0; i < rounds; i++ {
			b.Send(0, peer, int32(i), sz, trace.CommWorld)
			b.Recv(int(peer), 0, int32(i), sz, trace.CommWorld)
			b.Send(int(peer), 0, int32(1000+i), sz, trace.CommWorld)
			b.Recv(0, peer, int32(1000+i), sz, trace.CommWorld)
		}
		tr, err := b.BuildColumns()
		if err != nil {
			return nil, err
		}
		res, err := mpisim.Replay(tr, model, mach, simnet.Config{}, mpisim.Options{})
		if err != nil {
			return nil, err
		}
		oneWay := res.Total / (2 * rounds)
		cal.Samples = append(cal.Samples, CalSample{Bytes: sz, OneWay: oneWay})
	}

	// Two-regime fit, the standard ping-pong methodology: β from the
	// slope between the two largest sizes (per-hop pipeline fill and
	// protocol switches cancel in the difference), α from the smallest
	// sizes after subtracting the transfer term.
	if len(cal.Samples) < 3 {
		return nil, fmt.Errorf("mfact: calibration needs ≥ 3 sizes")
	}
	a := cal.Samples[len(cal.Samples)-2]
	bS := cal.Samples[len(cal.Samples)-1]
	dt := (bS.OneWay - a.OneWay).Seconds()
	ds := float64(bS.Bytes - a.Bytes)
	if dt <= 0 || ds <= 0 {
		return nil, fmt.Errorf("mfact: calibration sweep not monotone")
	}
	beta := ds / dt
	var alphaSum float64
	nSmall := 0
	for _, s := range cal.Samples[:2] {
		alphaSum += s.OneWay.Seconds() - float64(s.Bytes)/beta
		nSmall++
	}
	alpha := alphaSum / float64(nSmall)
	if alpha <= 0 {
		return nil, fmt.Errorf("mfact: calibration fit non-physical (α=%g s)", alpha)
	}
	cal.Alpha = simtime.FromSeconds(alpha)
	cal.Beta = beta
	return cal, nil
}

// Apply returns a copy of mach with the fitted Hockney parameters, for
// modeling with calibrated rather than data-sheet numbers.
func (c *Calibration) Apply(mach *machine.Config) *machine.Config {
	out := *mach
	out.Alpha = c.Alpha
	out.Beta = c.Beta
	return &out
}
