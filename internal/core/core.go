// Package core orchestrates the study: it materializes traces from the
// workload manifest, runs every selected prediction scheme (MFACT
// modeling and the three SST/Macro-analog simulations) on each, and
// aggregates the results into the paper's tables and figures
// (performance ratios, accuracy CDFs, per-app comparisons,
// classification groups, and the need-for-simulation predictor's
// training data).
//
// Traces are generated and stamped as *trace.Columns
// (workload.MaterializeReplay), and every scheme replays them through
// the trace.Source access path. Schemes come from internal/scheme's
// table of built-ins; adding a backend is an entry there, with no
// change here.
package core

import (
	"errors"
	"fmt"
	"time"

	"hpctradeoff/internal/des"
	"hpctradeoff/internal/features"
	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/mfact"
	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/scheme"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/trace"
	"hpctradeoff/internal/tracecache"
	"hpctradeoff/internal/workload"
)

// TraceResult bundles everything the study measures for one trace.
type TraceResult struct {
	Params workload.Params
	ID     string

	// Measured times stamped by the ground-truth executor.
	Measured     simtime.Time
	MeasuredComm simtime.Time
	CommFraction float64
	Events       int

	// Schemes holds every scheme's outcome keyed by scheme name
	// ("mfact", "packet", "flow", "packetflow", or whatever schemes the
	// trace's Runner was built over). Failed schemes carry their typed classification
	// (Outcome.ErrKind) so reports bucket capability gaps separately
	// from deadlocks.
	Schemes map[string]scheme.Outcome

	// Features is the Table III vector (filled when the run succeeds).
	Features []float64
}

// Model returns the MFACT result (baseline = as-configured machine),
// or nil when the mfact scheme did not run or failed.
func (tr *TraceResult) Model() *mfact.Result {
	if o, ok := tr.Schemes[scheme.MFACT]; ok && o.OK {
		return o.Model
	}
	return nil
}

// ModelWall returns MFACT's wall-clock modeling time (zero when the
// scheme did not run).
func (tr *TraceResult) ModelWall() time.Duration {
	return tr.Schemes[scheme.MFACT].Wall
}

// Outcome returns the named scheme's outcome and whether it ran.
func (tr *TraceResult) Outcome(name string) (scheme.Outcome, bool) {
	o, ok := tr.Schemes[name]
	return o, ok
}

// DiffTotal returns |T_scheme/T_model − 1| for the named scheme, and
// whether it is defined (the scheme succeeded and MFACT ran).
func (tr *TraceResult) DiffTotal(name string) (float64, bool) {
	s, ok := tr.Schemes[name]
	model := tr.Model()
	if !ok || !s.OK || model == nil || model.Total() <= 0 {
		return 0, false
	}
	d := float64(s.Total)/float64(model.Total()) - 1
	if d < 0 {
		d = -d
	}
	return d, true
}

// DiffComm is DiffTotal for communication time.
func (tr *TraceResult) DiffComm(name string) (float64, bool) {
	s, ok := tr.Schemes[name]
	model := tr.Model()
	if !ok || !s.OK || model == nil || model.Comm() <= 0 {
		return 0, false
	}
	d := float64(s.Comm)/float64(model.Comm()) - 1
	if d < 0 {
		d = -d
	}
	return d, true
}

// Group is the Section VI grouping of applications.
type Group string

// The three groups of Figure 5.
const (
	GroupCommSensitive Group = "communication-sensitive"
	GroupComputation   Group = "computation-bound"
	GroupImbalance     Group = "load-imbalance-bound"
)

// Group buckets the trace per the paper's rule: communication-
// sensitive if the modeled total rises >5% under 8× bandwidth
// reduction; otherwise split by the wait fraction (the share of
// logical time spent waiting for peers).
func (tr *TraceResult) Group() Group {
	model := tr.Model()
	if model == nil {
		return GroupComputation
	}
	if model.CommSensitive() {
		return GroupCommSensitive
	}
	if model.WaitFraction() > imbalanceGroupWait {
		return GroupImbalance
	}
	return GroupComputation
}

// imbalanceGroupWait is the wait-fraction cut separating the
// load-imbalance-bound group from the computation-bound group among
// network-insensitive applications.
const imbalanceGroupWait = 0.08

// RunOptions bound a single trace run; the zero value imposes no
// limits (the historical behavior).
type RunOptions struct {
	// Timeout is a wall-clock budget for the whole trace — ground-truth
	// materialization plus every replay. Exceeding it fails the trace
	// with an error wrapping des.ErrBudgetExceeded.
	Timeout time.Duration
	// MaxEvents caps the DES events of each individual simulation
	// (ground truth and prediction replays alike).
	MaxEvents uint64
	// Cancel, when non-nil, cancels the run when closed: replays stop
	// at their next scheduling boundary through the engines' Stop()
	// path and the trace fails with an error wrapping des.ErrCanceled.
	Cancel <-chan struct{} `json:"-"`
}

// Runner executes every selected scheme on each trace it is handed,
// keeping one scheme.Sessions set so replay state (clock-vector free
// lists, op/request arenas) amortizes across traces and the
// simulations share one lowering of each trace. A Runner is not safe
// for concurrent use; RunCampaign creates one per worker.
type Runner struct {
	schemes  []scheme.Scheme
	sessions *scheme.Sessions
	// cache, when non-nil, serves ground-truth-stamped traces by content
	// address instead of re-materializing them: RunOne acquires through
	// it, so every pass after a trace's first (triage escalation,
	// resume, repeated campaigns) replays an mmap'd entry at zero
	// generate+stamp cost. The Cache is safe to share across workers.
	cache *tracecache.Cache
}

// SetCache routes this Runner's trace acquisition through c (nil
// disables caching, the default).
func (rn *Runner) SetCache(c *tracecache.Cache) { rn.cache = c }

// NewRunner returns a Runner over the named schemes in the given
// order; nil or empty selects every built-in scheme in table order.
// Unknown names are an error.
func NewRunner(names []string) (*Runner, error) {
	ss, err := scheme.Resolve(names)
	if err != nil {
		return nil, err
	}
	return newRunner(ss), nil
}

// newRunner returns a Runner over ss, in order. Unlike NewRunner it
// takes schemes, not names, so a scheme outside the built-in table
// runs too; a campaign runs it through CampaignConfig.Runner.
func newRunner(ss []scheme.Scheme) *Runner {
	return &Runner{schemes: ss, sessions: scheme.NewSessions(ss)}
}

// RunOne materializes the trace for p (or acquires it from the trace
// cache) and runs every selected scheme on it.
func (rn *Runner) RunOne(p workload.Params, ro RunOptions) (*TraceResult, error) {
	var deadline time.Time
	if ro.Timeout > 0 {
		deadline = time.Now().Add(ro.Timeout)
	}
	materialize := func() (*trace.Columns, *mpisim.Program, error) {
		return workload.MaterializeReplay(p, workload.Limits{
			Deadline: deadline, MaxEvents: ro.MaxEvents, Cancel: ro.Cancel,
		})
	}
	var (
		cols    *trace.Columns
		prog    *mpisim.Program
		release = func() {}
		err     error
	)
	if rn.cache != nil {
		cols, prog, release, _, err = rn.cache.AcquireProgram(p, materialize)
	} else {
		cols, prog, err = materialize()
	}
	if err != nil {
		return nil, err
	}
	// The shared session adopts prog, which may alias the mapping that
	// release unmaps: drop the adoption first.
	defer func() {
		rn.sessions.NextTrace(nil)
		release()
	}()
	mach, err := machine.New(p.Machine, p.Ranks, p.RanksPerNode)
	if err != nil {
		return nil, err
	}
	return rn.runSource(cols, prog, mach, p, scheme.Options{Deadline: deadline, MaxEvents: ro.MaxEvents, Cancel: ro.Cancel})
}

// runSource runs every scheme session on an already-stamped source
// whose replay program is prog (nil: the sessions lower it).
func (rn *Runner) runSource(src trace.Source, prog *mpisim.Program, mach *machine.Config, p workload.Params, opts scheme.Options) (*TraceResult, error) {
	res := &TraceResult{
		Params:       p,
		ID:           src.TraceMeta().ID(),
		Measured:     trace.SourceMeasuredTotal(src),
		MeasuredComm: trace.SourceMeasuredComm(src),
		CommFraction: trace.SourceCommFraction(src),
		Events:       trace.SourceNumEvents(src),
		Schemes:      make(map[string]scheme.Outcome, len(rn.schemes)),
	}
	rn.sessions.NextTrace(prog)
	for i, s := range rn.schemes {
		name := s.Name()
		out, err := rn.sessions.Run(i, src, mach, opts)
		out.Scheme, out.Kind = name, s.Kind()
		if err != nil {
			// A blown budget or cancellation means the trace is a runaway:
			// fail the whole trace so the campaign can classify and report
			// it. Everything else — capability gaps, deadlocks — stays a
			// per-scheme outcome carrying its typed classification.
			if errors.Is(err, des.ErrBudgetExceeded) || errors.Is(err, des.ErrCanceled) {
				return nil, fmt.Errorf("core: running %s on %s: %w", name, res.ID, err)
			}
			out.OK = false
			out.Err = err.Error()
			out.ErrKind = string(Classify(err))
		}
		res.Schemes[name] = out
	}
	res.Features = features.ExtractSource(src, res.Model())
	return res, nil
}

// RunOne materializes the trace for p and runs every built-in scheme
// on it.
func RunOne(p workload.Params) (*TraceResult, error) {
	return RunOneOpts(p, RunOptions{})
}

// RunOneOpts is RunOne with per-trace budget limits. It builds a fresh
// Runner per call; campaign workers reuse one Runner across traces.
func RunOneOpts(p workload.Params, ro RunOptions) (*TraceResult, error) {
	rn, err := NewRunner(nil)
	if err != nil {
		return nil, err
	}
	return rn.RunOne(p, ro)
}

// RunSuite runs the given manifest with a worker pool (both tools use
// all cores on the study machine). progress, if non-nil, is called
// after each trace completes. RunSuite is the fail-fast front end of
// RunCampaign: any trace failure aborts the suite, with every failing
// trace aggregated (errors.Join) into the returned error.
func RunSuite(ps []workload.Params, workers int, progress func(done, total int, r *TraceResult)) ([]*TraceResult, error) {
	rs, _, err := RunCampaign(ps, CampaignConfig{Workers: workers, Progress: progress})
	if err != nil {
		return nil, err
	}
	return rs, nil
}
