package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hpctradeoff/internal/des"
	"hpctradeoff/internal/faultinject"
	"hpctradeoff/internal/workload"
)

// The tests in this file arm the global faultinject registry; they must
// not run in parallel with each other. Each arms via armFaults, which
// disarms on cleanup.

func armFaults(t *testing.T, seed int64, rules ...faultinject.Rule) {
	t.Helper()
	if err := faultinject.Arm(seed, rules); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Disarm)
}

// smallParams builds one cheap manifest entry per app name given.
func smallParams(apps ...string) []workload.Params {
	machines := []string{"cielito", "edison", "hopper"}
	ps := make([]workload.Params, len(apps))
	for i, app := range apps {
		ps[i] = workload.Params{App: app, Class: "S", Ranks: 16, Machine: machines[i%len(machines)], Seed: int64(100 + i)}
	}
	return ps
}

// sameResult compares the deterministic content of two trace results,
// ignoring wall-clock fields (scheme Wall durations vary run to run).
func sameResult(a, b *TraceResult) error {
	if a == nil || b == nil {
		return fmt.Errorf("nil result (a=%v b=%v)", a != nil, b != nil)
	}
	if a.ID != b.ID || a.Measured != b.Measured || a.MeasuredComm != b.MeasuredComm || a.Events != b.Events {
		return fmt.Errorf("measured fields differ: %s{%v %v %d} vs %s{%v %v %d}",
			a.ID, a.Measured, a.MeasuredComm, a.Events, b.ID, b.Measured, b.MeasuredComm, b.Events)
	}
	if len(a.Schemes) != len(b.Schemes) {
		return fmt.Errorf("scheme sets differ: %d vs %d", len(a.Schemes), len(b.Schemes))
	}
	for name, sa := range a.Schemes {
		sb, ok := b.Schemes[name]
		if !ok {
			return fmt.Errorf("scheme %s missing", name)
		}
		if sa.OK != sb.OK || sa.Total != sb.Total || sa.Comm != sb.Comm || sa.Events != sb.Events || sa.ErrKind != sb.ErrKind {
			return fmt.Errorf("scheme %s differs: {OK:%v Total:%v Comm:%v Events:%d Kind:%s} vs {OK:%v Total:%v Comm:%v Events:%d Kind:%s}",
				name, sa.OK, sa.Total, sa.Comm, sa.Events, sa.ErrKind,
				sb.OK, sb.Total, sb.Comm, sb.Events, sb.ErrKind)
		}
	}
	return nil
}

// A torn tail — the final line cut mid-record by a crash — must be
// detected with its byte offset, while every complete record before it
// is kept.
func TestCheckpointSalvageTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	p1 := workload.Params{App: "EP", Class: "S", Ranks: 16, Machine: "cielito", Seed: 1}
	p2 := workload.Params{App: "IS", Class: "S", Ranks: 16, Machine: "edison", Seed: 2}

	ck, err := OpenCheckpoint(path, []string{"mfact", "packet"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Append(CampaignKey(p1), &TraceResult{ID: "ep", Measured: 1}); err != nil {
		t.Fatal(err)
	}
	if err := ck.Append(CampaignKey(p2), &TraceResult{ID: "is", Measured: 2}); err != nil {
		t.Fatal(err)
	}
	ck.Close()

	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	intact := st.Size()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"version":3,"key":"torn-vic`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, schemes, sal, err := loadCheckpointFull(path)
	if err != nil {
		t.Fatalf("torn journal must load: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("loaded %d records, want 2", len(got))
	}
	if len(schemes) != 2 {
		t.Errorf("header schemes = %v", schemes)
	}
	if !sal.TornTail {
		t.Fatal("torn tail not detected")
	}
	if sal.TornAt != intact {
		t.Errorf("TornAt = %d, want %d (end of valid prefix)", sal.TornAt, intact)
	}
	if sal.Damaged != 0 {
		t.Errorf("Damaged = %d, want 0 (the tail is torn, not interior damage)", sal.Damaged)
	}
}

// A complete-but-garbled interior line (bit rot, partial overwrite) is
// skipped and reported, never fatal, and is not confused with a torn
// tail.
func TestCheckpointSalvageDamagedInterior(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	lines := `{"version":3,"header":true,"schemes":["mfact"]}
{"version":3,"key":"a","result":{"ID":"a"}}
}}}garbage not json{{{
{"version":3,"key":"b","result":{"ID":"b"}}
`
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, sal, err := loadCheckpointFull(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["a"] == nil || got["b"] == nil {
		t.Errorf("records around the damage lost: %v", got)
	}
	if sal.Damaged != 1 {
		t.Errorf("Damaged = %d, want 1", sal.Damaged)
	}
	if sal.TornTail {
		t.Error("interior damage misreported as a torn tail")
	}
}

// An unterminated final fragment that nonetheless parses (the crash
// happened exactly between the record bytes and the newline) is a
// complete record: it must be kept, not truncated away.
func TestCheckpointSalvageParsableUnterminatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	lines := `{"version":3,"header":true,"schemes":["mfact"]}
{"version":3,"key":"a","result":{"ID":"a"}}`
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, sal, err := loadCheckpointFull(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got["a"] == nil {
		t.Errorf("parsable unterminated tail lost: %v", got)
	}
	if sal.TornTail || sal.Damaged != 0 {
		t.Errorf("salvage = %+v, want clean", sal)
	}
}

// Appending to a journal whose tail was torn by a crash must not merge
// the new record into the torn fragment — the newline guard repairs
// the tail on open. Before the guard existed this lost BOTH records.
func TestCheckpointAppendAfterTornTailDoesNotMerge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	ck, err := OpenCheckpoint(path, []string{"mfact"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Append("a", &TraceResult{ID: "a", Measured: 1}); err != nil {
		t.Fatal(err)
	}
	ck.Close()

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"version":3,"key":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ck2, err := OpenCheckpoint(path, []string{"mfact"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ck2.Append("b", &TraceResult{ID: "b", Measured: 2}); err != nil {
		t.Fatal(err)
	}
	ck2.Close()

	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got["a"] == nil || got["b"] == nil {
		t.Fatalf("records lost to a torn-tail merge: have %v", got)
	}
}

// Within one campaign process, an append that fails partway (short
// write) must not corrupt the NEXT append: the journal repairs its
// tail before writing again, so the later record survives even though
// the torn one is lost.
func TestCheckpointRepairsTailAfterFailedAppend(t *testing.T) {
	armFaults(t, 1, faultinject.Rule{
		Site: "core/checkpoint-append", Action: faultinject.ActTorn, Hits: []uint64{1},
	})
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	ck, err := OpenCheckpoint(path, []string{"mfact"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Append("a", &TraceResult{ID: "a"}); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("first append err = %v, want injected torn write", err)
	}
	if err := ck.Append("b", &TraceResult{ID: "b", Measured: 2}); err != nil {
		t.Fatal(err)
	}
	ck.Close()

	got, _, sal, err := loadCheckpointFull(path)
	if err != nil {
		t.Fatal(err)
	}
	if got["b"] == nil {
		t.Fatal("record after the torn append was lost to a tail merge")
	}
	if sal.Damaged != 1 {
		t.Errorf("Damaged = %d, want 1 (the torn fragment, newline-terminated by the repair)", sal.Damaged)
	}
}

// A scheme that fails on every trace stays a per-scheme outcome: each
// trace records the typed failure for it, the other schemes keep
// running, and no trace fails. Nothing stops the scheme from running
// on later traces — each trace's outcome depends on that trace alone.
func TestCampaignSchemeFailureStaysPerScheme(t *testing.T) {
	armFaults(t, 1, faultinject.Rule{Site: "scheme/run", Label: "packet", Action: faultinject.ActError})

	ps := smallParams("EP", "IS", "DT", "EP", "IS")
	rs, rep, err := RunCampaign(ps, CampaignConfig{
		Workers: 1,
		Schemes: []string{"mfact", "packet"},
		Policy:  FailurePolicy{KeepGoing: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("per-scheme failures must not fail traces: %+v", rep.Errors)
	}
	for i, r := range rs {
		if r == nil {
			t.Fatalf("trace %d missing", i)
		}
		if o := r.Schemes["mfact"]; !o.OK {
			t.Errorf("trace %d: mfact should be untouched by packet's failure: %+v", i, o)
		}
		if o := r.Schemes["packet"]; o.OK || o.ErrKind != string(KindUnknown) {
			t.Errorf("trace %d: packet outcome = %+v, want a failed %s outcome", i, o, KindUnknown)
		}
	}
	if fired := faultinject.Fired(); len(fired) != len(ps) {
		t.Errorf("packet ran %d times after arming, want %d (once per trace)", len(fired), len(ps))
	}
}

// When the full scheme set fails, DegradeToModel re-runs
// the trace with MFACT alone: the trace still yields a model
// prediction, marked Degraded, and the campaign counts it.
func TestCampaignDegradesToModel(t *testing.T) {
	armFaults(t, 1, faultinject.Rule{
		Site: "scheme/run", Label: "packet",
		Action: faultinject.ActError, Err: des.ErrBudgetExceeded,
	})

	ps := smallParams("EP", "IS")
	rs, rep, err := RunCampaign(ps, CampaignConfig{
		Workers: 1,
		Schemes: []string{"mfact", "packet"},
		Policy:  FailurePolicy{KeepGoing: true, DegradeToModel: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Degraded != 2 || rep.Succeeded != 2 {
		t.Fatalf("report = %+v, want 0 failed / 2 degraded / 2 succeeded", rep)
	}
	for i, r := range rs {
		if r == nil {
			t.Fatalf("trace %d not rescued by the model fallback", i)
		}
		if !r.Degraded || r.DegradedFrom != string(KindBudget) {
			t.Errorf("trace %d: Degraded=%v From=%q, want true/budget", i, r.Degraded, r.DegradedFrom)
		}
		if o := r.Schemes["mfact"]; !o.OK {
			t.Errorf("trace %d: degraded result has no model prediction: %+v", i, o)
		}
		if _, ok := r.Schemes["packet"]; ok {
			t.Errorf("trace %d: degraded result carries a simulation outcome", i)
		}
	}
	if !strings.Contains(rep.Summary(), "2 degraded to model-only") {
		t.Errorf("summary omits degradation: %s", rep.Summary())
	}
}

// Cancellation degrades nothing (the operator asked the campaign to
// stop) and a canceled campaign reports itself resumable.
func TestDegradeSkipsCanceled(t *testing.T) {
	terr := &TraceError{Kind: KindCanceled, Err: des.ErrCanceled}
	called := false
	fallback := func(p workload.Params, ro RunOptions) (*TraceResult, error) {
		called = true
		return &TraceResult{}, nil
	}
	if r, got := degradeToModel(workload.Params{}, terr, RunOptions{}, fallback); r != nil || got != terr {
		t.Errorf("canceled trace degraded: r=%v err=%v", r, got)
	}
	if called {
		t.Error("fallback invoked for a canceled trace")
	}
}

// Closing Cancel mid-campaign fails the trace that sees it with
// KindCanceled, schedules no further traces, and preserves completed
// work. TestCancelStopsRunningReplay covers a cancel that lands while a
// replay is running.
func TestCampaignCancellation(t *testing.T) {
	schemes := []string{"mfact", "packet"}
	rn, err := NewRunner(schemes)
	if err != nil {
		t.Fatal(err)
	}
	// The campaign cancels itself as its second trace starts, so that
	// trace is in flight when Cancel closes however fast the host runs
	// it, and the first has completed.
	cancel := make(chan struct{})
	started := 0
	runner := func(p workload.Params, ro RunOptions) (*TraceResult, error) {
		if started++; started == 2 {
			close(cancel)
		}
		return rn.RunOne(p, ro)
	}
	ps := smallParams("EP", "IS", "DT")
	rs, rep, err := RunCampaign(ps, CampaignConfig{
		Workers: 1,
		Schemes: schemes,
		Policy:  FailurePolicy{KeepGoing: true},
		Cancel:  cancel,
		Runner:  runner,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Canceled == 0 {
		t.Fatalf("no trace classified canceled: %+v (results %v)", rep, rs)
	}
	if rs[0] == nil || rep.Succeeded != 1 {
		t.Errorf("the trace completed before cancellation was lost: %d succeeded (results %v)", rep.Succeeded, rs)
	}
	for _, te := range rep.Errors {
		if te.Kind != KindCanceled {
			t.Errorf("interrupted campaign recorded a non-canceled failure: %v", te)
		}
		if !errors.Is(te, des.ErrCanceled) {
			t.Errorf("canceled trace does not unwrap des.ErrCanceled: %v", te)
		}
	}
	if !strings.Contains(rep.Summary(), "interrupted") {
		t.Errorf("summary omits interruption: %s", rep.Summary())
	}
}

// A cancel that arrives while a replay runs (Ctrl-C on cmd/tradeoff)
// must reach the engine through the replay's watcher. Every engine step
// stalls 1 ms, so the stamper's replay of thousands of events runs for
// seconds; Cancel closes once a step has fired, so the replay is under
// way and the already-canceled check at its start cannot be what stops
// it. The error must report a run halted after some events.
func TestCancelStopsRunningReplay(t *testing.T) {
	armFaults(t, 1, faultinject.Rule{
		Site: "des/step", Action: faultinject.ActStall,
		Every: 1, Stall: time.Millisecond,
	})
	cancel, done := make(chan struct{}), make(chan struct{})
	defer close(done)
	go func() {
		for len(faultinject.Fired()) == 0 {
			select {
			case <-done:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
		close(cancel)
	}()
	p := workload.Params{App: "CG", Class: "S", Ranks: 16, Machine: "cielito", Seed: 7}
	_, err := RunOneOpts(p, RunOptions{Cancel: cancel})
	if !errors.Is(err, des.ErrCanceled) {
		t.Fatalf("canceled run err = %v, want des.ErrCanceled", err)
	}
	if Classify(err) != KindCanceled {
		t.Errorf("canceled run classified %s, want canceled", Classify(err))
	}
	var steps uint64
	msg := err.Error()
	if i := strings.Index(msg, "aborted after "); i < 0 {
		t.Errorf("error does not report where the replay stopped: %v", err)
	} else if _, serr := fmt.Sscanf(msg[i:], "aborted after %d events", &steps); serr != nil || steps == 0 {
		t.Errorf("replay stopped after %d events (%v), want a run halted mid-way: %v", steps, serr, err)
	}
}

// An injected stall must push a run past its wall-clock budget: the
// shape of a hung I/O or livelocked peer that only the deadline
// watchdog can catch.
func TestStallTripsWallClockBudget(t *testing.T) {
	armFaults(t, 1, faultinject.Rule{
		Site: "des/step", Action: faultinject.ActStall,
		Every: 100, Stall: time.Millisecond,
	})
	p := workload.Params{App: "EP", Class: "S", Ranks: 16, Machine: "cielito", Seed: 7}
	_, err := RunOneOpts(p, RunOptions{Timeout: 15 * time.Millisecond})
	if !errors.Is(err, des.ErrBudgetExceeded) {
		t.Fatalf("stalled run err = %v, want des.ErrBudgetExceeded", err)
	}
	if Classify(err) != KindBudget {
		t.Errorf("stalled run classified %s, want budget", Classify(err))
	}
}

// An injected panic inside a scheme adapter — below the worker's real
// Runner, not in a Runner override — is recovered and classified: the
// trace fails with KindPanic and its stack, and the next trace runs
// normally on the same worker's Runner and sessions.
func TestInjectedPanicIsIsolated(t *testing.T) {
	armFaults(t, 1, faultinject.Rule{
		Site: "scheme/run", Label: "mfact",
		Action: faultinject.ActPanic, MaxFires: 1,
	})
	ps := smallParams("EP", "IS")
	rs, rep, err := RunCampaign(ps, CampaignConfig{
		Workers: 1,
		Schemes: []string{"mfact"},
		Policy:  FailurePolicy{KeepGoing: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0] != nil || rs[1] == nil || rep.Failed != 1 || rep.Succeeded != 1 {
		t.Fatalf("rs=%v failed=%d succeeded=%d, want nil+result / 1 / 1", rs, rep.Failed, rep.Succeeded)
	}
	te := rep.Errors[0]
	if te.Kind != KindPanic || te.ID != CampaignKey(ps[0]) || te.Stack == "" {
		t.Errorf("panic error = {Kind:%s ID:%s stack:%d bytes}, want panic / %s / a stack",
			te.Kind, te.ID, len(te.Stack), CampaignKey(ps[0]))
	}
}

// The crash/resume differential: a campaign killed mid-checkpoint-write
// (torn append at a failpoint-chosen offset), then resumed, must
// converge to exactly the uninterrupted run's results across all 18
// applications — no committed result lost, no survivor perturbed.
func TestCrashResumeDifferentialAllApps(t *testing.T) {
	apps := []string{
		"CG", "MG", "FT", "IS", "LU", "BT", "EP", "DT",
		"BigFFT", "CrystalRouter", "AMG", "MiniFE", "LULESH",
		"CNS", "CMC", "Nekbone", "MultiGrid", "FillBoundary",
	}
	ps := smallParams(apps...)
	schemes := []string{"mfact", "packet"}

	// Uninterrupted reference run.
	want, _, err := RunCampaign(ps, CampaignConfig{Workers: 1, Schemes: schemes})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: the final checkpoint append tears mid-record — the
	// on-disk state of a kill, with the torn fragment at EOF — which the
	// campaign reports as an infrastructure failure and stops.
	const tornAppend = 18
	armFaults(t, 1, faultinject.Rule{
		Site: "core/checkpoint-append", Action: faultinject.ActTorn,
		Hits: []uint64{tornAppend},
	})
	ckpt := filepath.Join(t.TempDir(), "campaign.jsonl")
	_, _, err = RunCampaign(ps, CampaignConfig{
		Workers:        1,
		Schemes:        schemes,
		Policy:         FailurePolicy{KeepGoing: true},
		CheckpointPath: ckpt,
	})
	if err == nil {
		t.Fatal("torn checkpoint append did not stop the campaign")
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("campaign error does not carry the injected fault: %v", err)
	}
	faultinject.Disarm()

	// The journal must hold every append committed before the kill, and
	// the torn tail must be recoverable (not poison the loader).
	committed, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("journal with torn tail must load: %v", err)
	}
	if len(committed) != tornAppend-1 {
		t.Fatalf("journal holds %d records, want %d committed before the kill", len(committed), tornAppend-1)
	}

	// Phase 2: resume. Salvage truncates the torn tail, the committed
	// traces are skipped, the rest re-run.
	var warns []string
	got, rep, err := RunCampaign(ps, CampaignConfig{
		Workers:        1,
		Schemes:        schemes,
		Policy:         FailurePolicy{KeepGoing: true},
		CheckpointPath: ckpt,
		Resume:         true,
		Warnf:          func(f string, a ...any) { warns = append(warns, fmt.Sprintf(f, a...)) },
	})
	if err != nil {
		t.Fatalf("resume after kill: %v", err)
	}
	if rep.Skipped != tornAppend-1 {
		t.Errorf("resume skipped %d, want %d (every committed result reused)", rep.Skipped, tornAppend-1)
	}
	salvaged := false
	for _, w := range warns {
		if strings.Contains(w, "torn") {
			salvaged = true
		}
	}
	if !salvaged {
		t.Errorf("no salvage warning on resume: %v", warns)
	}

	// Differential: every app's result matches the uninterrupted run.
	for i := range ps {
		if err := sameResult(got[i], want[i]); err != nil {
			t.Errorf("%s diverged after crash/resume: %v", ps[i].App, err)
		}
	}

	// No committed result was lost: each key journaled before the kill
	// is still the final answer.
	final, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	for key, r := range committed {
		fr := final[key]
		if fr == nil {
			t.Errorf("committed result %s lost on resume", key)
			continue
		}
		if err := sameResult(fr, r); err != nil {
			t.Errorf("committed result %s rewritten on resume: %v", key, err)
		}
	}
	// And the salvaged journal is fully valid JSONL again.
	if len(final) != len(ps) {
		t.Errorf("final journal holds %d records, want %d", len(final), len(ps))
	}
}

// A sync-failure at the checkpoint (disk full, dying device) is an
// infrastructure failure: the campaign stops rather than silently
// running on without durability.
func TestCheckpointSyncFailureStopsCampaign(t *testing.T) {
	armFaults(t, 1, faultinject.Rule{
		Site: "core/checkpoint-sync", Action: faultinject.ActError, MaxFires: 1,
	})
	ps := smallParams("EP", "IS")
	_, _, err := RunCampaign(ps, CampaignConfig{
		Workers:        1,
		Schemes:        []string{"mfact"},
		Policy:         FailurePolicy{KeepGoing: true},
		CheckpointPath: filepath.Join(t.TempDir(), "ck.jsonl"),
	})
	if err == nil || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("sync failure not surfaced as infrastructure error: %v", err)
	}
}

// The results-save failpoint makes SaveResultsFile fail cleanly: no
// temp droppings, no clobbered previous file.
func TestResultsSaveFailpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.json")
	if err := SaveResultsFile(path, []*TraceResult{{ID: "keep"}}); err != nil {
		t.Fatal(err)
	}
	armFaults(t, 1, faultinject.Rule{Site: "core/results-save", Action: faultinject.ActError})
	if err := SaveResultsFile(path, []*TraceResult{{ID: "clobber"}}); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	faultinject.Disarm()
	got, err := LoadResultsFile(path)
	if err != nil || len(got) != 1 || got[0].ID != "keep" {
		t.Fatalf("previous results clobbered by failed save: %v %v", got, err)
	}
}
