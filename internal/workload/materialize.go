package workload

import (
	"fmt"
	"time"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/simnet"
	"hpctradeoff/internal/trace"
)

// MaterializeSpec generates a custom-spec trace and stamps measured
// timestamps, like MaterializeColumns does for built-in applications.
func MaterializeSpec(s *Spec, p Params) (*trace.Columns, error) {
	c, err := FromSpec(s, p)
	if err != nil {
		return nil, err
	}
	if _, err := stampSource(c, p, Limits{}); err != nil {
		return nil, err
	}
	return c, nil
}

// Limits bound a ground-truth materialization: a wall-clock deadline,
// a DES event cap, and a cancellation channel (closed = stop now via
// the engine's Stop path). Zero values mean unlimited.
type Limits struct {
	Deadline  time.Time
	MaxEvents uint64
	Cancel    <-chan struct{}
}

// MaterializeColumns generates the program for p and stamps
// "measured" timestamps into it by executing it on p.Machine's detailed
// packet-flow contention simulator with the default system-noise
// model. The result plays the role of a DUMPI trace collected on the
// real machine: its times embed contention and noise that prediction
// replays do not reproduce.
func MaterializeColumns(p Params) (*trace.Columns, error) {
	return MaterializeColumnsLimits(p, Limits{})
}

// MaterializeColumnsLimits is MaterializeColumns under run bounds. A
// blown budget fails with an error wrapping des.ErrBudgetExceeded, so
// a campaign can classify the trace as a runaway instead of hanging.
func MaterializeColumnsLimits(p Params, lim Limits) (*trace.Columns, error) {
	c, _, err := MaterializeReplay(p, lim)
	return c, err
}

// MaterializeReplay is MaterializeColumnsLimits that also returns the
// stamped trace's replay program, for callers that replay the trace
// next. Stamping lowers the generated trace anyway; retiming that
// program to the stamped durations makes it the stamped trace's, so
// the program costs no second lowering.
func MaterializeReplay(p Params, lim Limits) (*trace.Columns, *mpisim.Program, error) {
	c, err := GenerateColumns(p)
	if err != nil {
		return nil, nil, err
	}
	prog, err := stampSource(c, p, lim)
	if err != nil {
		return nil, nil, err
	}
	return c, prog, nil
}

// stampSource executes the program on its machine's detailed
// simulator with noise and writes the measured timestamps into src
// through the Source path.
//
// Params.Noise perturbs only this execution: a non-zero configuration
// jitters the machine's per-link bandwidths, slows heterogeneous
// nodes, and scales the OS-noise model, all seeded — the prediction
// replays still run on the nominal machine, so the variability ends up
// embedded in the "measured" times exactly as it would in a real
// collection. A zero Noise takes the identical code path and floats as
// before the field existed (TestZeroNoiseGroundTruthUnchanged).
//
// It returns the stamped trace's replay program: the one the recording
// replay ran, retimed to the stamped compute durations.
func stampSource(src trace.Source, p Params, lim Limits) (*mpisim.Program, error) {
	mach, err := machine.New(p.Machine, p.Ranks, p.RanksPerNode)
	if err != nil {
		return nil, err
	}
	perturb := mpisim.DefaultNoise(p.Seed, p.Ranks)
	if !p.Noise.IsZero() {
		mach.ApplyVariability(machine.Variability{
			LinkJitter: p.Noise.LinkJitter,
			NodeHetero: p.Noise.NodeHetero,
			Seed:       noiseSeed(p),
		})
		perturb = mpisim.VariabilityNoise(noiseSeed(p), p.Ranks, p.Noise.OSNoise, mach.RankSpeeds())
	}
	meta := src.TraceMeta()
	if meta.RanksPerNode == 0 {
		// Record the machine's actual placement density so the RN/N
		// features reflect the collection configuration.
		meta.RanksPerNode = mach.RanksPerNode
	}
	prog, err := mpisim.Lower(src)
	if err != nil {
		return nil, fmt.Errorf("workload: ground-truth execution of %s: %w", meta.ID(), err)
	}
	sess := mpisim.NewSession()
	sess.Adopt(prog)
	_, err = sess.Replay(src, simnet.PacketFlow, mach, simnet.Config{}, mpisim.Options{
		Record:    true,
		Perturb:   perturb,
		Deadline:  lim.Deadline,
		MaxEvents: lim.MaxEvents,
		Cancel:    lim.Cancel,
	})
	if err != nil {
		return nil, fmt.Errorf("workload: ground-truth execution of %s: %w", meta.ID(), err)
	}
	prog.Retime(src)
	return prog, nil
}

// noiseSeed isolates the platform-variability draws: the trace seed
// keeps distinct traces on independent streams, and Noise.Seed lets a
// sweep resample one trace's platform at the same amplitudes.
func noiseSeed(p Params) int64 {
	return p.Seed ^ (p.Noise.Seed+1)*-0x61c8864680b583eb // golden-ratio odd constant
}
