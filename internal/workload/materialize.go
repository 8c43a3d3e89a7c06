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
// timestamps, like Materialize does for built-in applications.
func MaterializeSpec(s *Spec, p Params) (*trace.Trace, error) {
	tr, err := FromSpec(s, p)
	if err != nil {
		return nil, err
	}
	return stamp(tr, p, time.Time{}, 0)
}

// Materialize generates the program for p and stamps "measured"
// timestamps into it by executing it on p.Machine's detailed
// packet-flow contention simulator with the default system-noise
// model. The result plays the role of a DUMPI trace collected on the
// real machine: its times embed contention and noise that prediction
// replays do not reproduce.
func Materialize(p Params) (*trace.Trace, error) {
	return MaterializeBudget(p, time.Time{}, 0)
}

// MaterializeBudget is Materialize with a bound on the ground-truth
// execution: deadline is a wall-clock cutoff and maxEvents caps the
// DES events of the stamping replay (zero values mean unlimited). A
// blown budget fails with an error wrapping des.ErrBudgetExceeded, so
// a campaign can classify the trace as a runaway instead of hanging.
func MaterializeBudget(p Params, deadline time.Time, maxEvents uint64) (*trace.Trace, error) {
	tr, err := Generate(p)
	if err != nil {
		return nil, err
	}
	return stamp(tr, p, deadline, maxEvents)
}

// Limits bound a ground-truth materialization: a wall-clock deadline,
// a DES event cap, and a cancellation channel (closed = stop now via
// the engine's Stop path). Zero values mean unlimited.
type Limits struct {
	Deadline  time.Time
	MaxEvents uint64
	Cancel    <-chan struct{}
}

// MaterializeColumns is Materialize building and stamping the columnar
// representation directly: generation, ground-truth execution, and
// write-back all go through the Source access path, so no
// array-of-structs trace is ever built.
func MaterializeColumns(p Params) (*trace.Columns, error) {
	return MaterializeColumnsLimits(p, Limits{})
}

// MaterializeColumnsBudget is MaterializeColumns with the
// MaterializeBudget bounds.
func MaterializeColumnsBudget(p Params, deadline time.Time, maxEvents uint64) (*trace.Columns, error) {
	return MaterializeColumnsLimits(p, Limits{Deadline: deadline, MaxEvents: maxEvents})
}

// MaterializeColumnsLimits is MaterializeColumns under the full set of
// run bounds, including cancellation.
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

// stamp executes the program on its machine's detailed simulator with
// noise and writes the measured timestamps into the trace.
func stamp(tr *trace.Trace, p Params, deadline time.Time, maxEvents uint64) (*trace.Trace, error) {
	if _, err := stampSource(tr, p, Limits{Deadline: deadline, MaxEvents: maxEvents}); err != nil {
		return nil, err
	}
	return tr, nil
}

// stampSource is stamp over any trace representation; the ground-truth
// replay and its timestamp write-back run through the Source path, so
// array-of-structs and columnar builds stamp bit-identically.
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
