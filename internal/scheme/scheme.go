// Package scheme unifies the study's prediction schemes — MFACT
// modeling and the packet, flow, and packet-flow simulations — behind
// one interface and registry, so the campaign layer runs "every
// registered scheme" without naming any of them. Adding a fifth
// backend is a Register call; internal/core never changes.
//
// Schemes run over trace.Source, so a campaign drives a *trace.Columns
// (heap-built or mapped from the trace cache) straight into every
// scheme. Per-worker Sessions own reusable replay state (clock-
// vector free lists, op/request arenas) so allocations amortize across
// traces, not just across events.
package scheme

import (
	"time"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/mfact"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/trace"
)

// Kind separates analytic models (no network state, one logical-clock
// pass) from discrete-event simulations (contention-observing).
type Kind string

// The two kinds the study compares.
const (
	KindModel      Kind = "model"
	KindSimulation Kind = "simulation"
)

// Canonical names of the built-in schemes. The simulation names equal
// the simnet model names, so results keyed by scheme read the same as
// the paper's tables.
const (
	MFACT      = "mfact"
	Packet     = "packet"
	Flow       = "flow"
	PacketFlow = "packetflow"
)

// Options bound one scheme run. The zero value imposes no limits.
type Options struct {
	// Deadline is a wall-clock cutoff (zero value means none).
	Deadline time.Time
	// MaxEvents caps the DES events of a simulation run; modeling
	// schemes may ignore it (a modeling pass is orders of magnitude
	// cheaper than the runs the cap defends against).
	MaxEvents uint64
	// Cancel, when non-nil, cancels a running simulation when closed,
	// through the DES engines' cooperative Stop() path; the run fails
	// with an error wrapping des.ErrCanceled. Modeling schemes may
	// ignore it for the same reason they ignore MaxEvents.
	Cancel <-chan struct{}
}

// Outcome records one scheme's run on one trace.
type Outcome struct {
	// Scheme and Kind echo the scheme's identity so outcomes loaded
	// from disk stay self-describing even for schemes no longer
	// registered.
	Scheme string
	Kind   Kind
	// OK is false when the scheme could not predict the trace (a
	// capability gap, a deadlock) or the run failed.
	OK bool
	// Err is the failure message; ErrKind its typed classification
	// (core.Classify), so campaign reports can bucket capability gaps
	// separately from deadlocks without parsing strings.
	Err     string `json:",omitempty"`
	ErrKind string `json:",omitempty"`
	// Total and Comm are the predicted application and communication
	// times.
	Total, Comm simtime.Time
	// Events is the number of events executed (DES events for
	// simulations, trace events for modeling).
	Events uint64
	// Wall is the wall-clock execution time of the run.
	Wall time.Duration
	// Model carries the full MFACT result (sweep, counters,
	// classification) for modeling schemes; nil for simulations. The
	// experiment builders read the classification and sensitivity
	// analysis from here.
	Model *mfact.Result `json:",omitempty"`
}

// Scheme is one prediction scheme: a way to turn a trace plus a
// machine model into predicted application and communication times.
type Scheme interface {
	// Name is the registry key ("mfact", "packet", ...).
	Name() string
	// Kind classifies the scheme as modeling or simulation.
	Kind() Kind
	// Run executes the scheme once, statelessly.
	Run(src trace.Source, mach *machine.Config, opts Options) (Outcome, error)
	// NewSession returns a fresh per-worker session whose Run is
	// equivalent to the scheme's but may reuse internal state across
	// calls. Sessions are not safe for concurrent use.
	NewSession() Session
}

// Session is a scheme instance owning reusable replay state. Results
// are bit-identical to the stateless Run; only allocation behavior
// differs.
type Session interface {
	Run(src trace.Source, mach *machine.Config, opts Options) (Outcome, error)
}

// Func adapts a plain function into a stateless Scheme — the shortest
// path to registering an experimental backend or a test double.
type Func struct {
	SchemeName string
	SchemeKind Kind
	RunFunc    func(src trace.Source, mach *machine.Config, opts Options) (Outcome, error)
}

// Name implements Scheme.
func (f Func) Name() string { return f.SchemeName }

// Kind implements Scheme.
func (f Func) Kind() Kind { return f.SchemeKind }

// Run implements Scheme.
func (f Func) Run(src trace.Source, mach *machine.Config, opts Options) (Outcome, error) {
	return f.RunFunc(src, mach, opts)
}

// NewSession implements Scheme; a Func is stateless, so the session is
// the Func itself.
func (f Func) NewSession() Session { return f }
