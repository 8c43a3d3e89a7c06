// Package mfact implements the MFACT modeling tool (MPI Fast
// Application Classification Tool, Tong et al., IPDPS 2016), the
// trace-driven modeling side of the study.
//
// MFACT replays a DUMPI-like trace once using Lamport logical clocks
// augmented with non-unit communication and computation times. The
// interconnect is abstracted by Hockney's two-parameter (α, β) model
// for point-to-point transfers and Thakur & Gropp's algorithm cost
// formulas for collectives. Because a replay never simulates network
// state, one pass can maintain a logical clock per *network
// configuration* and predict application performance on many
// configurations simultaneously; four logical time counters (wait,
// bandwidth, latency, computation) per configuration drive the
// classification of the application as computation-bound,
// load-imbalance-bound, bandwidth-bound, latency-bound, or
// communication-bound.
//
// Replays run on a deterministic sequential dataflow replayer. The
// package's tests hold it to an independent goroutine-per-rank
// reference replayer that exchanges logical-clock vectors between
// ranks, mirroring the MPI implementation of the original tool (one
// MFACT process per traced rank, timestamps transmitted instead of
// payloads); the two must agree bit for bit.
package mfact

import (
	"fmt"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/trace"
)

// NetConfig is one what-if network configuration: dimensionless
// multipliers on the machine's base bandwidth, latency, and compute
// speed. {1,1,1} is the machine as configured.
type NetConfig struct {
	// BWScale multiplies the Hockney β (bandwidth). 0.5 = half speed.
	BWScale float64
	// LatScale multiplies the Hockney α (latency). 2 = twice as slow.
	LatScale float64
	// CompScale multiplies recorded compute durations. 0.5 = a 2×
	// faster processor.
	CompScale float64
}

// Baseline is the as-configured network configuration.
var Baseline = NetConfig{BWScale: 1, LatScale: 1, CompScale: 1}

// StandardSweep returns the configuration grid MFACT replays by
// default: the baseline plus bandwidth slow-downs/speed-ups of 2/4/8×
// and latency slow-downs/speed-ups of 2/4/8×. The sweep is what the
// classifier's sensitivity analysis reads. Index 0 is always the
// baseline.
func StandardSweep() []NetConfig {
	cfgs := []NetConfig{Baseline}
	for _, s := range []float64{0.125, 0.25, 0.5, 2, 4, 8} {
		cfgs = append(cfgs, NetConfig{BWScale: s, LatScale: 1, CompScale: 1})
	}
	for _, s := range []float64{0.125, 0.25, 0.5, 2, 4, 8} {
		cfgs = append(cfgs, NetConfig{BWScale: 1, LatScale: s, CompScale: 1})
	}
	return cfgs
}

// Counters are MFACT's four logical time counters for one network
// configuration, averaged over ranks. They attribute each rank's
// elapsed logical time to causes:
//
//	Wait       time blocked on peers beyond pure transfer cost
//	           (late senders, collective synchronization slack)
//	Bandwidth  byte-volume terms (bytes/β')
//	Latency    per-message latency and software-overhead terms
//	Compute    scaled computation intervals
type Counters struct {
	Wait, Bandwidth, Latency, Compute simtime.Time
}

// Result is the outcome of one MFACT replay over a configuration set.
type Result struct {
	// Configs echoes the replayed configurations; index 0 is the
	// baseline used by Total(), Comm(), and the classifier.
	Configs []NetConfig
	// Totals[k] is the predicted application time under Configs[k].
	Totals []simtime.Time
	// Comms[k] is the predicted communication time (average over
	// ranks) under Configs[k].
	Comms []simtime.Time
	// PerConfig[k] holds the four counters under Configs[k].
	PerConfig []Counters
	// Class is the application classification derived from the sweep.
	Class Class
	// Events is the number of trace events processed (the modeling
	// cost metric; compare simnet.Stats for the simulators).
	Events int
}

// Total returns the baseline predicted application time.
func (r *Result) Total() simtime.Time { return r.Totals[0] }

// Comm returns the baseline predicted communication time.
func (r *Result) Comm() simtime.Time { return r.Comms[0] }

// TotalAt returns the predicted total under the first configuration
// matching cfg, or -1 if the sweep does not contain it.
func (r *Result) TotalAt(cfg NetConfig) simtime.Time {
	for i, c := range r.Configs {
		if c == cfg {
			return r.Totals[i]
		}
	}
	return -1
}

// Model replays src once with the sequential replayer over the given
// configurations (StandardSweep if nil) and classifies the
// application.
func Model(src trace.Source, mach *machine.Config, configs []NetConfig) (*Result, error) {
	return NewSession().Model(src, mach, configs)
}

// Session owns replay state reused across traces — clock vectors,
// message records, request and collective state, and the arenas a
// trace is lowered into — so a campaign worker modeling hundreds of
// traces amortizes its allocations. Recycled state is overwritten
// before use, so session replays stay bit-identical to stateless ones.
// A Session is not safe for concurrent use.
type Session struct {
	rp  replayer
	low *mpisim.Session // arenas for traces that come without a program
}

// NewSession returns an empty Session.
func NewSession() *Session { return &Session{low: mpisim.NewSession()} }

// Model lowers src to its replay program and models it: ModelProgram
// for a caller that does not hold the program.
func (s *Session) Model(src trace.Source, mach *machine.Config, configs []NetConfig) (*Result, error) {
	s.low.Reset()
	prog, err := s.low.Lower(src)
	if err != nil {
		return nil, fmt.Errorf("mfact: %w", err)
	}
	return s.ModelProgram(src, prog, mach, configs)
}

// ModelProgram replays src, whose lowered program is prog, once over
// the given configurations (StandardSweep if nil) and classifies the
// application. The trace is read only at collectives; prog supplies
// everything else.
func (s *Session) ModelProgram(src trace.Source, prog *mpisim.Program, mach *machine.Config, configs []NetConfig) (*Result, error) {
	if configs == nil {
		configs = StandardSweep()
	}
	if len(configs) == 0 || configs[0] != Baseline {
		return nil, fmt.Errorf("mfact: configuration 0 must be the baseline {1,1,1}")
	}
	for i, c := range configs {
		if c.BWScale <= 0 || c.LatScale <= 0 || c.CompScale <= 0 {
			return nil, fmt.Errorf("mfact: config %d has non-positive scale %+v", i, c)
		}
	}
	if len(mach.NodeOf) < src.TraceMeta().NumRanks {
		return nil, fmt.Errorf("mfact: machine hosts %d ranks, trace has %d", len(mach.NodeOf), src.TraceMeta().NumRanks)
	}
	st, err := s.rp.replay(src, prog, mach, configs)
	if err != nil {
		return nil, err
	}
	res := st.result()
	res.Configs = configs
	res.Class = Classify(res)
	return res, nil
}
