package main

import (
	"fmt"
	"time"

	"hpctradeoff/internal/des"
	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/simnet"
	"hpctradeoff/internal/simtime"
)

// The layer probes run a network model, or the event core alone, with
// no mpisim above it. A scheme's ns/event minus its network model's
// ns/event is what trace lowering and message matching cost.

const (
	probeReps  = 5
	probeBytes = 64 << 10
)

// netProbe injects traffic shaped like the workload into one network
// model on an otherwise idle engine and returns the median ns per DES
// event: an all-to-all exchange, or four rounds of a permutation.
func netProbe(model simnet.Model, ranks int, alltoall bool) (float64, error) {
	mach, err := machine.New("edison", ranks, 0)
	if err != nil {
		return 0, err
	}
	var samples []float64
	for rep := 0; rep < probeReps; rep++ {
		var eng des.Engine
		net, err := simnet.New(model, &eng, mach, simnet.Config{})
		if err != nil {
			return 0, err
		}
		sent, delivered := 0, 0
		send := func(src, dst int) {
			if src != dst {
				sent++
				net.Send(int32(src), int32(dst), probeBytes, func() { delivered++ })
			}
		}
		start := time.Now()
		for r := 0; r < ranks; r++ {
			if alltoall {
				for d := 0; d < ranks; d++ {
					send(r, d)
				}
			} else {
				for round := 0; round < 4; round++ {
					send(r, (r*37+11+round*5)%ranks)
				}
			}
		}
		eng.Run()
		elapsed := time.Since(start)
		if delivered != sent {
			return 0, fmt.Errorf("benchmark: %s probe delivered %d of %d messages", model, delivered, sent)
		}
		samples = append(samples, float64(elapsed)/float64(eng.Steps()))
	}
	return median(samples), nil
}

// engineProbe schedules a fixed pseudo-random fan-out of no-op events
// on a bare engine and returns the median ns per event.
func engineProbe() float64 {
	var samples []float64
	for rep := 0; rep < probeReps; rep++ {
		var eng des.Engine
		noop := func() {}
		x := uint64(1)
		start := time.Now()
		for i := 0; i < 200_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			eng.At(simtime.Time(x%100_000), noop)
		}
		eng.Run()
		samples = append(samples, float64(time.Since(start))/float64(eng.Steps()))
	}
	return median(samples)
}
