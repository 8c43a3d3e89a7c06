package core

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hpctradeoff/internal/des"
	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/scheme"
	"hpctradeoff/internal/simnet"
	"hpctradeoff/internal/trace"
	"hpctradeoff/internal/tracecache"
	"hpctradeoff/internal/triage"
	"hpctradeoff/internal/workload"
)

// The paper's experiment is a long campaign: MFACT plus three
// simulations over 235 traces. This file makes that campaign
// fault-tolerant: one bad trace (a panic in the replayer, a livelocked
// simulation, a malformed generator output) is isolated, classified,
// and reported — it no longer destroys the other 234 results.
// Completed traces stream to an append-only checkpoint so a killed
// campaign resumes where it left off.
//
// Every trace run is a pure function of its Params and scheme set, so
// the ladder has no retry rung (re-running the same Params reproduces
// the failure; re-running with another seed would journal a different
// trace under the manifest's key), no circuit breaker (with several
// workers its "consecutive" count followed completion order, so
// whether a scheme ran on a trace depended on the worker count), and
// no model-only fallback (it journaled an MFACT-only result under a
// header naming the full scheme set, so the journal no longer said
// which schemes a record ran).

// ErrorKind classifies why a trace failed, separating "this trace is
// broken" (invalid-input, deadlock) from "this trace is a runaway"
// (budget) from "the runner is broken" (panic).
type ErrorKind string

// The failure classes a campaign distinguishes.
const (
	// KindPanic marks a recovered panic in the modeling or simulation
	// stack.
	KindPanic ErrorKind = "panic"
	// KindBudget marks a run that exceeded its event or wall-clock
	// budget.
	KindBudget ErrorKind = "budget"
	// KindCanceled marks a run stopped by external cancellation.
	KindCanceled ErrorKind = "canceled"
	// KindDeadlock marks a replay whose ranks got permanently stuck.
	KindDeadlock ErrorKind = "deadlock"
	// KindInvalidInput marks a malformed trace or manifest entry.
	KindInvalidInput ErrorKind = "invalid-input"
	// KindUnsupported marks a capability gap: the scheme cannot replay
	// the trace's feature set (SST/Macro 3.0's packet and flow models on
	// complex grouping or thread-multiple traces).
	KindUnsupported ErrorKind = "unsupported"
	// KindUnknown is everything else.
	KindUnknown ErrorKind = "unknown"
)

// Classify maps a trace-run error to its ErrorKind.
func Classify(err error) ErrorKind {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, des.ErrBudgetExceeded):
		return KindBudget
	case errors.Is(err, des.ErrCanceled):
		return KindCanceled
	case errors.Is(err, mpisim.ErrDeadlock):
		return KindDeadlock
	case errors.Is(err, mpisim.ErrUnknownRequest), errors.Is(err, trace.ErrInvalid):
		return KindInvalidInput
	case errors.Is(err, simnet.ErrUnsupportedTrace):
		return KindUnsupported
	}
	return KindUnknown
}

// TraceError is the structured record of one trace's failure.
type TraceError struct {
	// ID is the manifest key of the failing trace (CampaignKey of its
	// params — the trace itself may never have materialized).
	ID   string
	Kind ErrorKind
	Err  error
	// Stack is the recovered goroutine stack; set for panics only.
	Stack string
}

// Error implements error.
func (e *TraceError) Error() string {
	return fmt.Sprintf("trace %s [%s]: %v", e.ID, e.Kind, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *TraceError) Unwrap() error { return e.Err }

// CampaignConfig configures RunCampaign. The zero value runs the
// historical fail-fast suite on all cores with no limits.
type CampaignConfig struct {
	// Workers is the worker-pool size (≤0 = all cores).
	Workers int
	// Schemes selects which built-in schemes run on each trace, in the
	// given order; nil or empty runs every built-in scheme. With Runner
	// set, it names the schemes the override runs. The selection is part
	// of the journal identity recorded in the checkpoint header.
	Schemes []string
	// KeepGoing collects per-trace errors and returns partial results
	// instead of aborting the campaign on the first failure. The failure
	// ladder has two rungs: panic isolation (always on), then a typed
	// per-trace failure.
	KeepGoing bool
	// Timeout is each trace's wall-clock budget and MaxEvents each
	// simulation's event budget (0 = unlimited); see RunOptions.
	Timeout   time.Duration
	MaxEvents uint64
	// CheckpointPath, when set, streams each completed TraceResult to
	// an append-only JSONL journal at this path.
	CheckpointPath string
	// Resume skips traces whose results are already in the checkpoint
	// journal; only never-run and previously failed traces re-execute.
	Resume bool
	// Progress, if non-nil, is called after each trace completes or is
	// restored from the checkpoint (r is nil for failed traces).
	Progress func(done, total int, r *TraceResult)
	// Warnf, if non-nil, receives operator warnings that are not
	// per-trace failures: checkpoint salvage, a classifier that could
	// not train, damaged cache entries. Nil discards them.
	Warnf func(format string, args ...any)
	// Cancel, when non-nil and closed, cancels the campaign: no new
	// traces are scheduled, in-flight replays stop through the DES
	// engines' Stop() path, and RunCampaign returns with everything
	// completed so far already journaled. Every trace left without a
	// result, in flight or never dispatched, fails with KindCanceled.
	Cancel <-chan struct{}
	// Runner overrides how one trace executes (a test seam: a Runner
	// over a scheme outside the built-in table, a runner that cancels
	// or fails on cue). Nil means one Runner per worker over Schemes.
	// The override is scheme-agnostic: a tiered campaign's model pass
	// calls it too.
	Runner func(p workload.Params, ro RunOptions) (*TraceResult, error)
	// Cache, when non-nil, serves ground-truth-stamped traces from a
	// content-addressed on-disk cache: every worker Runner (including
	// the triage model pass, escalations, and budget demotions)
	// acquires through it, so a trace is generated and stamped at most
	// once per cache lifetime and every later pass replays an mmap'd
	// codec-v3 entry. Ignored when Runner is
	// overridden (the override owns acquisition). Results are
	// bit-identical with and without a cache; see internal/tracecache.
	Cache *tracecache.Cache
	// Triage, when non-nil, runs the campaign tiered: every trace gets
	// a cheap MFACT pass, the enhanced-MFACT classifier (trained on a
	// calibration split run at full fidelity) scores it, and only
	// flagged traces escalate to the full scheme set. Off by default —
	// nil preserves the historical run-everything campaign exactly.
	// See internal/triage and runTriage for the phase structure and
	// the determinism/resume contract.
	Triage *triage.Policy
	// SpecHash identifies the compiled campaign spec driving this run
	// (spec.Compiled.Hash). With the scheme set and the normalized
	// triage policy it makes up the journal identity: a checkpoint
	// resumes only under the identity that wrote it.
	SpecHash string
}

// CampaignReport summarizes a campaign for the operator.
type CampaignReport struct {
	Total     int
	Succeeded int
	Failed    int
	// Skipped counts traces restored from the checkpoint on resume.
	Skipped int
	// Canceled counts traces that failed with KindCanceled (they are
	// included in Failed); non-zero means the campaign was interrupted
	// and can be resumed from its checkpoint.
	Canceled int
	// Errors holds one TraceError per failed trace, in manifest order.
	Errors []*TraceError
	Wall   time.Duration
	// Triage summarizes the tiered scheduler's decisions; nil for
	// non-tiered campaigns.
	Triage *TriageReport
	// Cache holds the trace cache's activity during this campaign (a
	// delta, not the cache's lifetime counters); nil when the campaign
	// ran uncached.
	Cache *tracecache.Stats
}

// Err joins every per-trace failure into one error, or nil if all
// traces succeeded.
func (r *CampaignReport) Err() error {
	if len(r.Errors) == 0 {
		return nil
	}
	joined := make([]error, len(r.Errors))
	for i, e := range r.Errors {
		joined[i] = e
	}
	return fmt.Errorf("core: %d of %d traces failed: %w", r.Failed, r.Total, errors.Join(joined...))
}

// Summary is a one-line operator summary.
func (r *CampaignReport) Summary() string {
	s := fmt.Sprintf("campaign: %d traces: %d succeeded, %d failed, %d resumed from checkpoint, in %v",
		r.Total, r.Succeeded, r.Failed, r.Skipped, r.Wall.Round(time.Millisecond))
	if r.Canceled > 0 {
		s += fmt.Sprintf(" [interrupted: %d traces canceled]", r.Canceled)
	}
	if r.Cache != nil {
		s += fmt.Sprintf(" [trace cache: %s]", r.Cache)
	}
	return s
}

// RunCampaign runs the manifest under the given fault-tolerance
// configuration. The returned slice is aligned with ps: failed traces
// leave a nil entry (the experiment builders tolerate and count them).
// The error is non-nil only for infrastructure failures (checkpoint
// I/O, bad config) or, in fail-fast mode, the joined per-trace errors;
// a keep-going campaign reports trace failures via the report alone.
func RunCampaign(ps []workload.Params, cfg CampaignConfig) ([]*TraceResult, *CampaignReport, error) {
	start := time.Now()
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	schemeNames := cfg.Schemes
	if len(schemeNames) == 0 {
		schemeNames = scheme.Names()
	}
	if cfg.Runner == nil {
		// Validate the selection before any worker needs it.
		if _, err := scheme.Resolve(schemeNames); err != nil {
			return nil, nil, fmt.Errorf("core: %w", err)
		}
	}
	warnf := cfg.Warnf
	if warnf == nil {
		warnf = func(string, ...any) {}
	}
	var pol *triage.Policy
	if cfg.Triage != nil {
		// Normalized once here: the checkpoint header records the
		// normalized form, so defaults changing across builds cannot
		// silently re-plan a resumed campaign.
		p := cfg.Triage.Normalize(len(ps))
		pol = &p
		if !slices.Contains(schemeNames, scheme.MFACT) {
			return nil, nil, fmt.Errorf("core: triage requires the %s scheme in the campaign selection", scheme.MFACT)
		}
		if len(schemeNames) < 2 {
			return nil, nil, fmt.Errorf("core: triage needs at least one simulation scheme to escalate to")
		}
	}

	var cacheStart tracecache.Stats
	if cfg.Cache != nil {
		cacheStart = cfg.Cache.Stats()
	}

	rep := &CampaignReport{Total: len(ps)}
	c := &campaign{
		ps:          ps,
		cfg:         cfg,
		schemeNames: schemeNames,
		warnf:       warnf,
		rep:         rep,
		results:     make([]*TraceResult, len(ps)),
		traceErrs:   make([]*TraceError, len(ps)),
		triage:      pol,
		ro:          RunOptions{Timeout: cfg.Timeout, MaxEvents: cfg.MaxEvents, Cancel: cfg.Cancel},
	}

	done := map[string]*TraceResult{}
	var replayed map[string]triage.Decision
	if cfg.Resume && cfg.CheckpointPath == "" {
		return nil, nil, fmt.Errorf("core: resume requested without a checkpoint path")
	}
	if cfg.CheckpointPath != "" {
		// Read the journal up front even when not resuming: an existing
		// journal of a different identity or schema version must be
		// rejected, never silently appended to.
		st, err := loadCheckpointState(cfg.CheckpointPath)
		if err != nil {
			return nil, nil, fmt.Errorf("core: resuming campaign: %w", err)
		}
		// One identity guards the journal: results journaled under one
		// scheme set, triage policy or spec never satisfy another.
		want := journalID{schemes: sortedSchemes(schemeNames), triage: pol, spec: cfg.SpecHash}
		if st.id != nil && !st.id.equal(want) {
			return nil, nil, fmt.Errorf("core: checkpoint %s was written by the campaign [%s] but this campaign is [%s]; use a fresh checkpoint path or the matching configuration",
				cfg.CheckpointPath, st.id, want)
		}
		// Salvage before appending: a torn tail (crash mid-append) is
		// cut back to the valid JSONL prefix — the records before it
		// are all kept — so the journal never accretes a garbage line,
		// and mid-file damage is reported, not silently skipped.
		if st.salvage != nil && st.salvage.TornTail {
			if err := os.Truncate(cfg.CheckpointPath, st.salvage.TornAt); err != nil {
				return nil, nil, fmt.Errorf("core: salvaging checkpoint %s: %w", cfg.CheckpointPath, err)
			}
			warnf("core: checkpoint %s ended in a torn record (crash mid-append); salvaged the valid prefix, %d completed traces kept", cfg.CheckpointPath, len(st.results))
		}
		if st.salvage != nil && st.salvage.Damaged > 0 {
			warnf("core: checkpoint %s has %d damaged line(s); the affected traces will re-run", cfg.CheckpointPath, st.salvage.Damaged)
		}
		if cfg.Resume {
			done = st.results
			replayed = st.decisions
		}
	}

	var pending []int
	for i, p := range ps {
		if r, ok := done[CampaignKey(p)]; ok {
			c.results[i] = r
			rep.Skipped++
			c.completed++
			if cfg.Progress != nil {
				cfg.Progress(c.completed, len(ps), r)
			}
		} else {
			pending = append(pending, i)
		}
	}

	if cfg.CheckpointPath != "" {
		ckpt, err := OpenCheckpointSpec(cfg.CheckpointPath, schemeNames, pol, cfg.SpecHash)
		if err != nil {
			return nil, nil, fmt.Errorf("core: opening checkpoint: %w", err)
		}
		c.ckpt = ckpt
		defer ckpt.Close()
	}

	if pol != nil {
		c.runTriage(pending, replayed)
	} else {
		c.runPool(poolOpts{indices: pending, schemes: schemeNames, record: true})
	}
	if c.canceled() {
		// A cancel leaves the traces it kept from dispatch, and those of
		// tiered phases that never came, with neither a result nor an
		// error; they fail as canceled, so the report counts every trace.
		for i, p := range ps {
			if c.results[i] == nil && c.traceErrs[i] == nil {
				c.traceErrs[i] = &TraceError{ID: CampaignKey(p), Kind: KindCanceled,
					Err: fmt.Errorf("core: not dispatched: %w", des.ErrCanceled)}
			}
		}
	}

	if cfg.Cache != nil {
		st := cfg.Cache.Stats().Sub(cacheStart)
		rep.Cache = &st
	}
	for _, te := range c.traceErrs {
		if te != nil {
			rep.Failed++
			if te.Kind == KindCanceled {
				rep.Canceled++
			}
			rep.Errors = append(rep.Errors, te)
		}
	}
	for _, r := range c.results {
		if r != nil {
			rep.Succeeded++
		}
	}
	rep.Succeeded -= rep.Skipped
	rep.Wall = time.Since(start)

	if c.infraErr != nil {
		return c.results, rep, c.infraErr
	}
	if !cfg.KeepGoing {
		if err := rep.Err(); err != nil {
			return c.results, rep, err
		}
	}
	return c.results, rep, nil
}

// campaign is one RunCampaign invocation's shared state: the manifest,
// the aligned result/error slices, the journal, and the halt flag every
// worker pool shares. The tiered scheduler runs several pools
// (calibration, model pass, escalation) over the same campaign, so the
// state lives here rather than in RunCampaign's locals.
type campaign struct {
	ps          []workload.Params
	cfg         CampaignConfig
	schemeNames []string
	warnf       func(string, ...any)
	rep         *CampaignReport
	results     []*TraceResult
	traceErrs   []*TraceError
	triage      *triage.Policy
	ro          RunOptions // each trace's budgets and the campaign's Cancel
	ckpt        *Checkpoint

	stop atomic.Bool // stops scheduling new traces (fail-fast, infra errors)

	mu        sync.Mutex
	infraErr  error
	completed int
}

// halted reports whether the campaign must schedule no further work:
// a fail-fast failure, an infrastructure error, or cancellation.
func (c *campaign) halted() bool {
	return c.stop.Load() || c.canceled()
}

// canceled reports whether the campaign's Cancel is closed.
func (c *campaign) canceled() bool {
	select {
	case <-c.cfg.Cancel:
		return true
	default:
		return false
	}
}

// setInfraErr records the first infrastructure failure and halts the
// campaign.
func (c *campaign) setInfraErr(err error) {
	c.mu.Lock()
	if c.infraErr == nil {
		c.infraErr = err
	}
	c.mu.Unlock()
	c.stop.Store(true)
}

// finish records index i's final outcome: result and error slots,
// completion count, progress callback, and the fail-fast halt.
func (c *campaign) finish(i int, r *TraceResult, terr *TraceError) {
	c.mu.Lock()
	c.results[i], c.traceErrs[i] = r, terr
	c.completed++
	if c.cfg.Progress != nil {
		c.cfg.Progress(c.completed, len(c.ps), r)
	}
	c.mu.Unlock()
	if terr != nil && !c.cfg.KeepGoing {
		c.stop.Store(true)
	}
}

// journal appends index i's completed result to the checkpoint;
// losing the journal is an infrastructure failure, not a trace
// failure, so it halts the campaign.
func (c *campaign) journal(i int, r *TraceResult) {
	if c.ckpt == nil {
		return
	}
	if err := c.ckpt.Append(CampaignKey(c.ps[i]), r); err != nil {
		c.setInfraErr(fmt.Errorf("core: checkpointing %s: %w", CampaignKey(c.ps[i]), err))
	}
}

// poolOpts configures one worker-pool pass over a subset of the
// manifest.
type poolOpts struct {
	// indices are the manifest indices to run, dispatched in order.
	indices []int
	// schemes selects the Runner's scheme set for this pass.
	schemes []string
	// record marks the pass's results as final: journaled (when a
	// checkpoint is open), stored in the campaign's result slice, and
	// fed to the progress callback. A non-record pass (the triage
	// model pass) delivers provisional results via onResult only.
	record bool
	// skip, when non-nil, is consulted in dispatch order before each
	// job; returning true hands the job to demote instead of running
	// it (the wall-clock budget's dispatch gate).
	skip   func(i int) bool
	demote func(i int)
	// onResult, when non-nil, observes every finished job (called
	// outside the campaign lock; distinct jobs never share an index).
	onResult func(i int, r *TraceResult, terr *TraceError)
}

// runPool runs the indices through a worker pool. It preserves the
// historical campaign semantics: one Runner (one scheme.Session set)
// per worker, panic isolation per trace, fail-fast halting, and
// journal-loss-as-infrastructure-failure.
func (c *campaign) runPool(o poolOpts) {
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < c.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runner := c.cfg.Runner
			if runner == nil {
				// One Runner (one scheme.Session set) per worker: replay
				// arenas and free lists amortize across this worker's
				// traces without any cross-goroutine sharing.
				rn, err := NewRunner(o.schemes)
				if err != nil {
					c.setInfraErr(fmt.Errorf("core: %w", err))
					for range jobs {
						// Drain so the producer never blocks on a dead pool.
					}
					return
				}
				rn.SetCache(c.cfg.Cache)
				runner = rn.RunOne
			}
			for i := range jobs {
				if c.stop.Load() {
					// The campaign is halting (fail-fast failure or
					// checkpoint loss). Skip jobs already handed out: after
					// a journal failure nothing more may run or append —
					// that is what a kill looks like — and it keeps a
					// single-worker campaign's schedule deterministic.
					continue
				}
				r, terr := runIsolated(c.ps[i], c.ro, runner)
				if o.onResult != nil {
					o.onResult(i, r, terr)
				}
				if o.record {
					if terr == nil {
						c.journal(i, r)
					}
					c.finish(i, r, terr)
				} else if terr != nil && !c.cfg.KeepGoing {
					c.stop.Store(true)
				}
			}
		}()
	}
produce:
	for _, i := range o.indices {
		if c.stop.Load() {
			break
		}
		if o.skip != nil && o.skip(i) {
			o.demote(i)
			continue
		}
		select {
		case jobs <- i:
		case <-c.cfg.Cancel: // never ready when Cancel is nil
			break produce
		}
	}
	close(jobs)
	wg.Wait()
}

// runIsolated invokes the runner with panic isolation: a panic
// anywhere in the modeling or simulation stack becomes a classified
// TraceError carrying the goroutine stack, instead of killing the
// campaign process.
func runIsolated(p workload.Params, ro RunOptions,
	runner func(workload.Params, RunOptions) (*TraceResult, error)) (r *TraceResult, terr *TraceError) {
	defer func() {
		if rec := recover(); rec != nil {
			r = nil
			terr = &TraceError{
				ID:    CampaignKey(p),
				Kind:  KindPanic,
				Err:   fmt.Errorf("panic: %v", rec),
				Stack: string(debug.Stack()),
			}
		}
	}()
	res, err := runner(p, ro)
	if err != nil {
		return nil, &TraceError{ID: CampaignKey(p), Kind: Classify(err), Err: err}
	}
	return res, nil
}
