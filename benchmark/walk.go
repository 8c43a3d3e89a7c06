package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"hpctradeoff/internal/classifier"
	"hpctradeoff/internal/core"
	"hpctradeoff/internal/features"
	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/scheme"
	"hpctradeoff/internal/spec"
	"hpctradeoff/internal/trace"
	"hpctradeoff/internal/tracecache"
	"hpctradeoff/internal/triage"
	wgen "hpctradeoff/internal/workload"
)

// The layered walk is cmd/tradeoff's campaign re-driven from outside:
// the same manifest, the same public functions of every layer in the
// same order, with a span around each call. It exists because the
// program has no tracing of its own yet; the correctness gate holds it
// to the program by requiring its result digest to equal the digest of
// a real `tradeoff` run of the same spec. Spans named probe.* time
// calls the program does not make (a second GenerateColumns to split
// materialization into generate and stamp; a codec-v3 encode and mmap
// open on a scratch file, which tracecache otherwise hides inside
// Acquire); they run only when tracing is on and so count as tracing
// overhead.

// minWall is cmd/tradeoff's -minwall default (Figure 1's cut).
const minWall = 20 * time.Millisecond

// walkOut is what one walk produced.
type walkOut struct {
	results []*core.TraceResult
	// fullShare is the share of the manifest that ran every scheme
	// (1 for a non-tiered campaign).
	fullShare float64
	cache     tracecache.Stats
	wall      time.Duration
}

// walker carries one walk's handles.
type walker struct {
	rec     *recorder
	dir     string
	cache   *tracecache.Cache
	ckpt    *core.Checkpoint
	schemes []string
	// cancel is never closed; cmd/tradeoff always hands the layers a
	// live cancellation channel, so the walk does too.
	cancel chan struct{}
	probed map[string]bool
}

// walk runs the campaign of specPath in-process, journaling and
// rendering into dir and acquiring traces through cacheDir. rec is nil
// for the untraced walk.
func walk(rec *recorder, specPath, dir, cacheDir string) (*walkOut, error) {
	start := time.Now()
	root := rec.begin("campaign")

	id := rec.begin("spec.compile")
	s, err := spec.Load(specPath)
	if err != nil {
		return nil, err
	}
	c, err := spec.Compile(s)
	if err != nil {
		return nil, err
	}
	rec.end(id)

	cache, err := tracecache.Open(cacheDir, tracecache.Options{})
	if err != nil {
		return nil, err
	}
	var pol *triage.Policy
	if c.Triage != nil {
		p := c.Triage.Normalize(len(c.Manifest))
		pol = &p
	}
	ckpt, err := core.OpenCheckpointSpec(filepath.Join(dir, "ck.jsonl"), c.Schemes, pol, c.Hash())
	if err != nil {
		return nil, err
	}
	defer ckpt.Close()

	wk := &walker{rec: rec, dir: dir, cache: cache, ckpt: ckpt, schemes: c.Schemes,
		cancel: make(chan struct{}), probed: map[string]bool{}}
	out := &walkOut{fullShare: 1}
	var report *core.TriageReport
	if pol != nil {
		out.results, report, err = wk.tiered(c.Manifest, *pol)
		if report != nil {
			out.fullShare = report.EscalationRate
		}
	} else {
		out.results, err = wk.plain(c.Manifest)
	}
	if err != nil {
		return nil, err
	}

	savePath := filepath.Join(dir, "results.json")
	id = rec.begin("core.results_save")
	if err := core.SaveResultsFile(savePath, out.results); err != nil {
		return nil, err
	}
	if report != nil {
		if err := core.SaveTriageReport(savePath+".triage.json", report); err != nil {
			return nil, err
		}
	}
	rec.end(id)

	id = rec.begin("core.render")
	render(io.Discard, out.results)
	rec.end(id)

	id = rec.begin("core.figures")
	if _, err := core.WriteFigures(filepath.Join(dir, "figs"), out.results, minWall); err != nil {
		return nil, err
	}
	rec.end(id)

	rec.end(root)
	out.cache = cache.Stats()
	out.wall = time.Since(start)
	if rec != nil {
		// After the root span and outside the walk's wall: these analyses
		// belong to other commands, not to the campaign being traced.
		if err := wk.probeStudy(savePath, out.results); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// plain is the run-everything campaign: every scheme on every trace, in
// manifest order, each result journaled before the next trace starts.
func (wk *walker) plain(ps []wgen.Params) ([]*core.TraceResult, error) {
	pass, err := newPass(wk.schemes)
	if err != nil {
		return nil, err
	}
	rs := make([]*core.TraceResult, len(ps))
	for i, p := range ps {
		if rs[i], err = wk.runAndJournal(p, pass); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// tiered is core's four-phase triage campaign at one worker:
// calibration at full fidelity, a model-only pass over the rest, a
// journaled plan, then escalations in descending score.
func (wk *walker) tiered(ps []wgen.Params, pol triage.Policy) ([]*core.TraceResult, *core.TriageReport, error) {
	sched := triage.New(pol)
	n := len(ps)
	rs := make([]*core.TraceResult, n)
	dec := make([]triage.Decision, n)

	full, err := newPass(wk.schemes)
	if err != nil {
		return nil, nil, err
	}
	calIdx := sched.CalibrationIndices(n)
	isCal := make([]bool, n)
	var obs []classifier.Observation
	for _, i := range calIdx {
		isCal[i] = true
		dec[i] = triage.Decision{Key: core.CampaignKey(ps[i]), Escalate: true, Reason: triage.ReasonCalibration}
		if rs[i], err = wk.runAndJournal(ps[i], full); err != nil {
			return nil, nil, err
		}
		// TriagePoints yields the scoring vector and DIFF label under
		// core's own conventions, and drops results without a label.
		for _, pt := range core.TriagePoints(rs[i : i+1]) {
			obs = append(obs, classifier.Observation{ID: rs[i].ID, X: pt.X, DiffTotal: pt.Diff})
		}
	}
	id := wk.rec.begin("triage.train")
	// A training failure marks the classifier down and Plan escalates
	// everything, as in the program; it is not a walk error.
	_ = sched.Train(obs)
	wk.rec.end(id)

	modelPass, err := newPass([]string{scheme.MFACT})
	if err != nil {
		return nil, nil, err
	}
	model := make([]*core.TraceResult, n)
	var cands []triage.Candidate
	var candIdx []int
	for i, p := range ps {
		if isCal[i] {
			continue
		}
		if pol.Threshold > 0 {
			if model[i], err = wk.runTrace(p, modelPass); err != nil {
				return nil, nil, err
			}
		}
		cands = append(cands, triage.Candidate{Key: core.CampaignKey(p), X: scoringVector(model[i])})
		candIdx = append(candIdx, i)
	}
	id = wk.rec.begin("triage.plan")
	for j, d := range sched.Plan(cands) {
		dec[candIdx[j]] = d
	}
	wk.rec.end(id)

	id = wk.rec.begin("core.checkpoint_append")
	for _, d := range dec {
		if err := wk.ckpt.AppendDecision(d); err != nil {
			return nil, nil, err
		}
	}
	wk.rec.end(id)

	var esc []int
	for i, d := range dec {
		switch {
		case isCal[i]:
		case d.Escalate:
			esc = append(esc, i)
		default:
			rs[i] = model[i]
			if err := wk.journal(ps[i], rs[i]); err != nil {
				return nil, nil, err
			}
		}
	}
	sort.Slice(esc, func(a, b int) bool {
		da, db := dec[esc[a]], dec[esc[b]]
		if da.Score != db.Score {
			return da.Score > db.Score
		}
		return da.Key < db.Key
	})
	escPass, err := newPass(wk.schemes)
	if err != nil {
		return nil, nil, err
	}
	for _, i := range esc {
		if rs[i], err = wk.runAndJournal(ps[i], escPass); err != nil {
			return nil, nil, err
		}
	}
	return rs, &core.TriageReport{
		Policy: pol, Calibration: len(calIdx), Escalated: len(esc), ModelOnly: n - len(calIdx) - len(esc),
		EscalationRate: float64(len(calIdx)+len(esc)) / float64(n), Decisions: dec,
	}, nil
}

// scoringVector is core's classifier input for a model-only result:
// the Table III features with the CL entry recomputed from the stored
// sensitivity sweep.
func scoringVector(r *core.TraceResult) []float64 {
	if r == nil || r.Features == nil || r.Model() == nil {
		return nil
	}
	x := append([]float64(nil), r.Features...)
	if cl := features.Index("CLncs"); cl >= 0 {
		x[cl] = 1
		if r.Model().CommSensitive() {
			x[cl] = 0
		}
	}
	return x
}

// pass is one worker-pool pass's scheme set with its reusable sessions
// (core builds a fresh Runner, hence fresh sessions, per pass).
type pass struct {
	schemes  []scheme.Scheme
	sessions []scheme.Session
}

func newPass(names []string) (*pass, error) {
	ss, err := scheme.Resolve(names)
	if err != nil {
		return nil, err
	}
	p := &pass{schemes: ss}
	for _, s := range ss {
		p.sessions = append(p.sessions, s.NewSession())
	}
	return p, nil
}

func (wk *walker) runAndJournal(p wgen.Params, ps *pass) (*core.TraceResult, error) {
	r, err := wk.runTrace(p, ps)
	if err != nil {
		return nil, err
	}
	return r, wk.journal(p, r)
}

func (wk *walker) journal(p wgen.Params, r *core.TraceResult) error {
	id := wk.rec.begin("core.checkpoint_append")
	defer wk.rec.end(id)
	return wk.ckpt.Append(core.CampaignKey(p), r)
}

// runTrace is core.Runner.RunOne layer by layer: acquire the stamped
// trace through the cache, build the machine, run each scheme of the
// pass, extract the features.
func (wk *walker) runTrace(p wgen.Params, ps *pass) (*core.TraceResult, error) {
	rec := wk.rec
	if rec != nil {
		rec.trace = core.CampaignKey(p)
		defer func() { rec.trace = "" }()
	}
	tid := rec.begin("trace")
	defer rec.end(tid)

	acq := rec.begin("tracecache.acquire")
	cols, release, hit, err := wk.cache.Acquire(p, func() (*trace.Columns, error) {
		id := rec.begin("workload.materialize")
		defer rec.end(id)
		return wgen.MaterializeColumnsLimits(p, wgen.Limits{Cancel: wk.cancel})
	})
	if err != nil {
		return nil, err
	}
	defer release()
	if hit {
		rec.endAs(acq, "tracecache.acquire_hit")
	} else {
		rec.endAs(acq, "tracecache.acquire_miss")
	}
	if rec != nil {
		if err := wk.probeTrace(p, cols, hit); err != nil {
			return nil, err
		}
	}

	id := rec.begin("machine.new")
	mach, err := machine.New(p.Machine, p.Ranks, p.RanksPerNode)
	rec.end(id)
	if err != nil {
		return nil, err
	}

	res := &core.TraceResult{
		Params:       p,
		ID:           cols.TraceMeta().ID(),
		Measured:     trace.SourceMeasuredTotal(cols),
		MeasuredComm: trace.SourceMeasuredComm(cols),
		CommFraction: trace.SourceCommFraction(cols),
		Events:       trace.SourceNumEvents(cols),
		Schemes:      make(map[string]scheme.Outcome, len(ps.schemes)),
	}
	for i, s := range ps.schemes {
		name := s.Name()
		var before, after runtime.MemStats
		if rec != nil {
			runtime.ReadMemStats(&before)
		}
		id := rec.begin("scheme." + name + ".run")
		out, err := ps.sessions[i].Run(cols, mach, scheme.Options{Cancel: wk.cancel})
		rec.end(id)
		if rec != nil {
			runtime.ReadMemStats(&after)
			rec.count("scheme."+name+".allocs", float64(after.Mallocs-before.Mallocs))
		}
		out.Scheme, out.Kind = name, s.Kind()
		if err != nil {
			out.OK, out.Err, out.ErrKind = false, err.Error(), string(core.Classify(err))
			if out.ErrKind == string(core.KindUnsupported) {
				rec.count("scheme."+name+".unsupported", 1)
			} else {
				rec.count("scheme."+name+".failed", 1)
			}
		}
		rec.count("scheme."+name+".events", float64(out.Events))
		res.Schemes[name] = out
	}

	id = rec.begin("features.extract")
	res.Features = features.ExtractSource(cols, res.Model())
	rec.end(id)
	return res, nil
}

// probeTrace times, once per manifest entry, the calls the program
// makes only inside other layers: generation alone (on a miss, so that
// stamping = materialize − generate), and a codec-v3 encode and mapped
// open of the stamped trace on a scratch file.
func (wk *walker) probeTrace(p wgen.Params, cols *trace.Columns, hit bool) error {
	key := core.CampaignKey(p)
	if wk.probed[key] {
		return nil
	}
	wk.probed[key] = true
	rec := wk.rec
	rec.count("workload.trace_events", float64(cols.NumEvents()))
	if !hit {
		id := rec.begin("probe.workload.generate")
		_, err := wgen.GenerateColumns(p)
		rec.end(id)
		if err != nil {
			return err
		}
	}

	path := filepath.Join(wk.dir, "probe.htrc3")
	defer os.Remove(path)
	id := rec.begin("probe.trace.encode_v3")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = trace.WriteColumnsV3(f, cols)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	rec.end(id)
	if err != nil {
		return err
	}
	id = rec.begin("probe.trace.open_mapped")
	m, err := trace.OpenMapped(path)
	rec.end(id)
	if err != nil {
		return err
	}
	rec.count("trace.bytes_v3", float64(len(m.Image())))
	return m.Close()
}

// probeStudy times the analyses other commands run on saved results:
// loading them back, the §VI prediction study (cmd/predictor) and the
// triage frontier sweep (cmd/diffreport -frontier).
func (wk *walker) probeStudy(savePath string, rs []*core.TraceResult) error {
	rec := wk.rec
	id := rec.begin("probe.core.results_load")
	_, err := core.LoadResultsFile(savePath)
	rec.end(id)
	if err != nil {
		return err
	}
	// Both analyses train a classifier and refuse result sets too small
	// to train on; that is an expected outcome on a reduced manifest, and
	// the span still records what the attempt cost.
	id = rec.begin("probe.classifier.prediction_study")
	_, _ = core.BuildPredictionStudy(rs, 100, 5, 2016)
	rec.end(id)
	id = rec.begin("probe.triage.frontier")
	_, _ = triage.Frontier(core.TriagePoints(rs), triage.Policy{Seed: 1}, []float64{0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1})
	rec.end(id)
	return nil
}

// render is cmd/tradeoff's report tail: every table and figure the
// program prints after a campaign.
func render(w io.Writer, rs []*core.TraceResult) {
	fmt.Fprintln(w, core.BuildTable1(rs).Render())
	if t2 := core.BuildTable2(rs, map[string]int{"CMC": 1024, "LULESH": 512, "MiniFE": 1152}); len(t2) > 0 {
		fmt.Fprintln(w, core.RenderTable2(t2))
	}
	fmt.Fprintln(w, core.BuildFigure1(rs, minWall).Render())
	fmt.Fprintln(w, core.BuildFigure2(rs).Render())
	nas := []string{"CG", "MG", "FT", "IS", "LU", "BT", "EP", "DT"}
	doe := []string{"BigFFT", "CrystalRouter", "AMG", "MiniFE", "LULESH", "CNS", "CMC", "Nekbone", "MultiGrid", "FillBoundary"}
	fmt.Fprintln(w, core.RenderAppAccuracy("Figure 3", core.BuildAppAccuracy(rs, nas)))
	fmt.Fprintln(w, core.RenderAppAccuracy("Figure 4", core.BuildAppAccuracy(rs, doe)))
	if cells := core.BuildVariability(rs); len(cells) > 1 || (len(cells) == 1 && cells[0].Axis != "baseline") {
		fmt.Fprintln(w, core.RenderVariability(cells))
	}
}
