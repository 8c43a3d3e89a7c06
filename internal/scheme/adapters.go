package scheme

import (
	"fmt"
	"time"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/mfact"
	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/simnet"
	"hpctradeoff/internal/trace"
)

// builtins are the study's four schemes, in the order the paper
// reports them: the MFACT model, then the packet, flow, and packet-flow
// simulations. The table is fixed; a campaign runs a scheme outside it
// only through a Runner built over that scheme (internal/core).
var builtins = func() []Scheme {
	ss := []Scheme{mfactScheme{}}
	for _, m := range simnet.Models() {
		ss = append(ss, simScheme{model: m})
	}
	return ss
}()

// Adapters return (Outcome, err) with the Outcome's identity and Wall
// always filled, leaving the caller to decide which errors are fatal
// for the whole trace (blown budgets) and which stay per-scheme
// records (capability gaps, deadlocks).

// mfactScheme adapts the MFACT modeling tool.
type mfactScheme struct{}

func (mfactScheme) Name() string { return MFACT }
func (mfactScheme) Kind() Kind   { return KindModel }

// Run replays the standard configuration sweep. The budget options are
// not applied: one logical-clock pass is orders of magnitude cheaper
// than the simulations the budget defends against.
func (mfactScheme) Run(src trace.Source, mach *machine.Config, _ Options) (Outcome, error) {
	start := time.Now()
	res, err := mfact.Model(src, mach, nil)
	return mfactOutcome(res, err, time.Since(start))
}

func (mfactScheme) NewSession() Session { return &mfactSession{sess: mfact.NewSession()} }

// mfactSession models through an mfact.Session. On its own (NewSession)
// every Run lowers its trace afresh; in a Sessions set it takes the
// trace's program from the set's shared mpisim.Session, which adopted
// it or lowers it once for every scheme of the set.
type mfactSession struct {
	sess *mfact.Session
	low  *mpisim.Session // the set's; nil on its own
}

func (s *mfactSession) Run(src trace.Source, mach *machine.Config, _ Options) (Outcome, error) {
	start := time.Now()
	if s.low == nil {
		res, err := s.sess.Model(src, mach, nil)
		return mfactOutcome(res, err, time.Since(start))
	}
	prog, err := s.low.Lower(src)
	if err != nil {
		return mfactOutcome(nil, fmt.Errorf("mfact: %w", err), time.Since(start))
	}
	res, err := s.sess.ModelProgram(src, prog, mach, nil)
	return mfactOutcome(res, err, time.Since(start))
}

func mfactOutcome(res *mfact.Result, err error, wall time.Duration) (Outcome, error) {
	out := Outcome{Scheme: MFACT, Kind: KindModel, Wall: wall}
	if err != nil {
		return out, err
	}
	out.OK = true
	out.Total = res.Total()
	out.Comm = res.Comm()
	out.Events = uint64(res.Events)
	out.Model = res
	return out, nil
}

// simScheme adapts one mpisim replay over one simnet model.
type simScheme struct{ model simnet.Model }

func (s simScheme) Name() string { return string(s.model) }
func (simScheme) Kind() Kind     { return KindSimulation }

func (s simScheme) Run(src trace.Source, mach *machine.Config, opts Options) (Outcome, error) {
	start := time.Now()
	res, err := mpisim.Replay(src, s.model, mach, simnet.Config{}, simOpts(opts))
	return simOutcome(string(s.model), res, err, time.Since(start))
}

func (s simScheme) NewSession() Session {
	return &simSession{model: s.model, sess: mpisim.NewSession()}
}

// simSession replays on one network model through an mpisim.Session
// that is either its own (NewSession: every Run lowers its trace
// afresh, so any trace may follow any other) or shared with the other
// simulations of a Sessions set, which says when the trace changes.
type simSession struct {
	model  simnet.Model
	sess   *mpisim.Session
	shared bool
}

func (s *simSession) Run(src trace.Source, mach *machine.Config, opts Options) (Outcome, error) {
	start := time.Now()
	if !s.shared {
		s.sess.Reset()
	}
	res, err := s.sess.Replay(src, s.model, mach, simnet.Config{}, simOpts(opts))
	return simOutcome(string(s.model), res, err, time.Since(start))
}

func simOpts(opts Options) mpisim.Options {
	return mpisim.Options{Deadline: opts.Deadline, MaxEvents: opts.MaxEvents, Cancel: opts.Cancel}
}

func simOutcome(name string, res *mpisim.Result, err error, wall time.Duration) (Outcome, error) {
	out := Outcome{Scheme: name, Kind: KindSimulation, Wall: wall}
	if err != nil {
		return out, err
	}
	out.OK = true
	out.Total = res.Total
	out.Comm = res.Comm
	out.Events = res.Events
	return out, nil
}

// Sessions is one worker's sessions over a list of schemes, one per
// scheme. Unlike sessions made one at a time with NewSession, the
// built-in schemes in the set — MFACT and the simulations — share a
// single mpisim.Session: one set of replay arenas instead of one per
// network model, and one replay program per trace for all of them,
// either handed over by the caller (the trace cache keeps one next to
// every trace) or lowered once. Other schemes get their own NewSession.
// Sharing needs to know when the trace changes: call NextTrace before
// the first Run on each trace, and hand every Run up to the next
// NextTrace the same, unmodified trace.
type Sessions struct {
	list []Session
	low  *mpisim.Session // nil when the set has no built-in scheme
}

// NewSessions returns a session set over ss, in order.
func NewSessions(ss []Scheme) *Sessions {
	w := &Sessions{list: make([]Session, len(ss))}
	shared := func() *mpisim.Session {
		if w.low == nil {
			w.low = mpisim.NewSession()
		}
		return w.low
	}
	for i, s := range ss {
		switch s := s.(type) {
		case simScheme:
			w.list[i] = &simSession{model: s.model, sess: shared(), shared: true}
		case mfactScheme:
			w.list[i] = &mfactSession{sess: mfact.NewSession(), low: shared()}
		default:
			w.list[i] = s.NewSession()
		}
	}
	return w
}

// NextTrace discards what the set kept of the previous trace. prog,
// when non-nil, is the next trace's replay program (mpisim.Lower of
// it, or an equal one): the set's built-in schemes replay it and none
// of them lowers the trace. It must stay valid and unmodified until the
// next NextTrace.
func (w *Sessions) NextTrace(prog *mpisim.Program) {
	if w.low == nil {
		return
	}
	w.low.Reset()
	if prog != nil {
		w.low.Adopt(prog)
	}
}

// Run runs the i'th scheme's session.
func (w *Sessions) Run(i int, src trace.Source, mach *machine.Config, opts Options) (Outcome, error) {
	return w.list[i].Run(src, mach, opts)
}
