package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hpctradeoff/internal/des"
	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/scheme"
	"hpctradeoff/internal/trace"
	"hpctradeoff/internal/triage"
	"hpctradeoff/internal/workload"
)

// testScheme is a test-only fifth backend: a real scheme outside the
// built-in table whose failures (errors, blown budgets, panics) the
// campaign must isolate and classify exactly as it would a built-in
// scheme's. It is stateless, so it serves as its own session.
type testScheme struct {
	name string
	kind scheme.Kind
	run  func(src trace.Source) (scheme.Outcome, error)
}

func (s testScheme) Name() string               { return s.name }
func (s testScheme) Kind() scheme.Kind          { return s.kind }
func (s testScheme) NewSession() scheme.Session { return s }
func (s testScheme) Run(src trace.Source, _ *machine.Config, _ scheme.Options) (scheme.Outcome, error) {
	return s.run(src)
}

// runnerOver is a CampaignConfig.Runner over ss, in order: how a
// campaign runs a scheme outside the built-in table. It is one Runner,
// so the campaign must run one worker.
func runnerOver(ss ...scheme.Scheme) func(workload.Params, RunOptions) (*TraceResult, error) {
	return newRunner(ss).RunOne
}

// builtin returns the built-in scheme named name.
func builtin(t testing.TB, name string) scheme.Scheme {
	t.Helper()
	ss, err := scheme.Resolve([]string{name})
	if err != nil {
		t.Fatal(err)
	}
	return ss[0]
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

	ck, err := OpenCheckpointSpec(path, []string{"mfact", "packet"}, nil, "")
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
	ck, err := OpenCheckpointSpec(path, []string{"mfact"}, nil, "")
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

	ck2, err := OpenCheckpointSpec(path, []string{"mfact"}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := ck2.Append("b", &TraceResult{ID: "b", Measured: 2}); err != nil {
		t.Fatal(err)
	}
	ck2.Close()

	got, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got["a"] == nil || got["b"] == nil {
		t.Fatalf("records lost to a torn-tail merge: have %v", got)
	}
}

// A scheme that fails on every trace stays a per-scheme outcome: each
// trace records the typed failure for it, the other schemes keep
// running, and no trace fails. Nothing stops the scheme from running
// on later traces — each trace's outcome depends on that trace alone.
func TestCampaignSchemeFailureStaysPerScheme(t *testing.T) {
	runs := 0
	flaky := testScheme{name: "flaky", kind: scheme.KindSimulation, run: func(trace.Source) (scheme.Outcome, error) {
		runs++
		return scheme.Outcome{}, errors.New("flaky backend down")
	}}

	ps := smallParams("EP", "IS", "DT", "EP", "IS")
	rs, rep, err := RunCampaign(ps, CampaignConfig{
		Workers:   1,
		Schemes:   []string{"mfact", "flaky"},
		KeepGoing: true,
		Runner:    runnerOver(builtin(t, scheme.MFACT), flaky),
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
			t.Errorf("trace %d: mfact should be untouched by flaky's failure: %+v", i, o)
		}
		if o := r.Schemes["flaky"]; o.OK || o.ErrKind != string(KindUnknown) {
			t.Errorf("trace %d: flaky outcome = %+v, want a failed %s outcome", i, o, KindUnknown)
		}
	}
	if runs != len(ps) {
		t.Errorf("flaky ran %d times, want %d (once per trace)", runs, len(ps))
	}
}

// Closing Cancel mid-campaign fails the trace that sees it with
// KindCanceled, schedules no further traces, and preserves completed
// work. TestCancelStopsRunningReplay covers the replay that sees the
// closed channel.
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
		Workers:   1,
		Schemes:   schemes,
		KeepGoing: true,
		Cancel:    cancel,
		Runner:    runner,
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

// A cancel that closes between traces leaves the rest undispatched,
// and each of them must still be counted: as canceled, so that
// succeeded + failed + resumed is the total and the summary says the
// campaign was interrupted. The runner closes Cancel on the first trace
// and, like a replay, fails with des.ErrCanceled once it is closed.
// Whether the producer dispatches the second trace before it sees the
// cancel depends on select order, so the test asserts no count that
// does; the tiered campaign stops after its calibration pass.
func TestCancelAccountsUndispatched(t *testing.T) {
	for name, pol := range map[string]*triage.Policy{
		"plain":  nil,
		"tiered": {Threshold: 0.5, Calibration: 1, Seed: 1},
	} {
		cancel := make(chan struct{})
		runner := func(p workload.Params, ro RunOptions) (*TraceResult, error) {
			select {
			case <-ro.Cancel:
				return nil, fmt.Errorf("replay stopped: %w", des.ErrCanceled)
			default:
			}
			close(cancel)
			return quickRunner(p, ro)
		}
		_, rep, err := RunCampaign(smallParams("EP", "IS", "DT", "CG", "MG", "FT"), CampaignConfig{
			Workers:   1,
			Schemes:   []string{"mfact", "packet"},
			KeepGoing: true,
			Cancel:    cancel,
			Runner:    runner,
			Triage:    pol,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := rep.Succeeded + rep.Failed + rep.Skipped; n != rep.Total {
			t.Errorf("%s: report accounts for %d of %d traces: %s", name, n, rep.Total, rep.Summary())
		}
		if rep.Canceled < 1 || !strings.Contains(rep.Summary(), "[interrupted: ") {
			t.Errorf("%s: summary does not report the cancel: %s", name, rep.Summary())
		}
	}
}

// A canceled run (Ctrl-C on cmd/tradeoff) must stop at its replay, not
// after it: with Cancel already closed, the ground-truth replay halts
// before its first event, and the error is a classified cancellation
// that reports where the replay stopped. des's
// TestEngineStopFromHandler covers a Stop that lands mid-run.
func TestCancelStopsRunningReplay(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	p := workload.Params{App: "CG", Class: "S", Ranks: 16, Machine: "cielito", Seed: 7}
	_, err := RunOneOpts(p, RunOptions{Cancel: cancel})
	if !errors.Is(err, des.ErrCanceled) {
		t.Fatalf("canceled run err = %v, want des.ErrCanceled", err)
	}
	if Classify(err) != KindCanceled {
		t.Errorf("canceled run classified %s, want canceled", Classify(err))
	}
	if !strings.Contains(err.Error(), "aborted after 0 events") {
		t.Errorf("error does not report where the replay stopped: %v", err)
	}
}

// A run past its wall-clock budget fails with a blown budget. A 1 ns
// timeout has passed by the time the first replay starts, and the
// engine reads the clock before its first event, so the run halts at
// the same point on any host.
func TestStallTripsWallClockBudget(t *testing.T) {
	p := workload.Params{App: "EP", Class: "S", Ranks: 16, Machine: "cielito", Seed: 7}
	_, err := RunOneOpts(p, RunOptions{Timeout: time.Nanosecond})
	if !errors.Is(err, des.ErrBudgetExceeded) {
		t.Fatalf("timed-out run err = %v, want des.ErrBudgetExceeded", err)
	}
	if Classify(err) != KindBudget {
		t.Errorf("timed-out run classified %s, want budget", Classify(err))
	}
	if !strings.Contains(err.Error(), "deadline passed after 0 events") {
		t.Errorf("timed-out run did not halt before its first event: %v", err)
	}
}

// A panic inside a scheme — below the worker's real Runner, not in a
// Runner override — is recovered and classified: the trace fails with
// KindPanic and its stack, and the next trace runs normally on the
// same worker's Runner and sessions.
func TestInjectedPanicIsIsolated(t *testing.T) {
	runs := 0
	panicky := testScheme{name: "panicky", kind: scheme.KindModel, run: func(trace.Source) (scheme.Outcome, error) {
		if runs++; runs == 1 {
			panic("panicky: index out of range")
		}
		return scheme.Outcome{OK: true}, nil
	}}
	ps := smallParams("EP", "IS")
	rs, rep, err := RunCampaign(ps, CampaignConfig{
		Workers:   1,
		Schemes:   []string{"mfact", "panicky"},
		KeepGoing: true,
		Runner:    runnerOver(builtin(t, scheme.MFACT), panicky),
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

// journalLines returns the byte extent [start, end) of each line of a
// journal image, newline excluded, in file order: the header first,
// then one line per append.
func journalLines(data []byte) [][2]int {
	var out [][2]int
	for start := 0; start < len(data); {
		end := bytes.IndexByte(data[start:], '\n')
		if end < 0 {
			out = append(out, [2]int{start, len(data)})
			break
		}
		out = append(out, [2]int{start, start + end})
		start += end + 1
	}
	return out
}

// cutJournal writes a copy of a journal image cut at byte offset at —
// what a kill in the middle of the append that wrote byte at leaves on
// disk — and returns its path.
func cutJournal(t *testing.T, data []byte, at int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cut.jsonl")
	if err := os.WriteFile(path, data[:at], 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// The crash/resume differential: a campaign killed mid-append leaves
// its journal cut inside a record. Cutting a finished journal at seeded
// byte offsets inside its records reproduces that state; each cut,
// resumed, must converge to exactly the uninterrupted run's results
// across all 18 applications — no committed result lost, no survivor
// perturbed.
func TestCrashResumeDifferentialAllApps(t *testing.T) {
	ps := smallParams(allApps...)
	schemes := []string{"mfact", "packet"}

	// Uninterrupted reference run, journaled.
	full := filepath.Join(t.TempDir(), "campaign.jsonl")
	want, _, err := RunCampaign(ps, CampaignConfig{Workers: 1, Schemes: schemes, CheckpointPath: full})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := journalLines(data)
	if len(lines) != len(ps)+1 {
		t.Fatalf("journal has %d lines, want a header and %d records", len(lines), len(ps))
	}

	// Cut inside the last record (one trace to re-run) and inside a
	// seeded earlier one; each cut keeps at least one byte of its record
	// and drops at least one.
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{len(ps), 1 + rng.Intn(len(ps)-1)} {
		ln := lines[k]
		at := ln[0] + 1 + rng.Intn(ln[1]-ln[0]-1)
		ckpt := cutJournal(t, data, at)

		// The cut journal holds every append committed before the kill,
		// and the torn tail does not poison the loader.
		committed, err := loadCheckpoint(ckpt)
		if err != nil {
			t.Fatalf("cut at byte %d of record %d: journal must load: %v", at, k, err)
		}
		if len(committed) != k-1 {
			t.Fatalf("cut at byte %d of record %d: journal holds %d records, want %d", at, k, len(committed), k-1)
		}

		// Resume. Salvage truncates the torn tail, the committed traces
		// are skipped, the rest re-run.
		var warns []string
		got, rep, err := RunCampaign(ps, CampaignConfig{
			Workers:        1,
			Schemes:        schemes,
			KeepGoing:      true,
			CheckpointPath: ckpt,
			Resume:         true,
			Warnf:          func(f string, a ...any) { warns = append(warns, fmt.Sprintf(f, a...)) },
		})
		if err != nil {
			t.Fatalf("resume after a cut in record %d: %v", k, err)
		}
		if rep.Skipped != k-1 {
			t.Errorf("record %d cut: resume skipped %d, want %d (every committed result reused)", k, rep.Skipped, k-1)
		}
		if !strings.Contains(strings.Join(warns, "\n"), "torn") {
			t.Errorf("record %d cut: no salvage warning on resume: %v", k, warns)
		}

		// Differential: every app's result matches the uninterrupted run.
		for i := range ps {
			if err := sameResult(got[i], want[i]); err != nil {
				t.Errorf("record %d cut: %s diverged after crash/resume: %v", k, ps[i].App, err)
			}
		}

		// No committed result was lost: each key journaled before the
		// kill is still the final answer, and the salvaged journal is
		// fully valid JSONL again, the torn fragment cut away.
		final, _, sal, err := loadCheckpointFull(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if sal.TornTail || sal.Damaged != 0 {
			t.Errorf("record %d cut: journal after resume still carries damage: %+v", k, sal)
		}
		for key, r := range committed {
			fr := final[key]
			if fr == nil {
				t.Errorf("record %d cut: committed result %s lost on resume", k, key)
				continue
			}
			if err := sameResult(fr, r); err != nil {
				t.Errorf("record %d cut: committed result %s rewritten on resume: %v", k, key, err)
			}
		}
		if len(final) != len(ps) {
			t.Errorf("record %d cut: final journal holds %d records, want %d", k, len(final), len(ps))
		}
	}
}

// loadCheckpoint reads a journal's completed results by key.
func loadCheckpoint(path string) (map[string]*TraceResult, error) {
	st, err := loadCheckpointState(path)
	if err != nil {
		return nil, err
	}
	return st.results, nil
}

// loadCheckpointFull is loadCheckpoint also returning the header's
// scheme set (nil when the journal has no header line) and a salvage
// report of any damage it skipped over.
func loadCheckpointFull(path string) (map[string]*TraceResult, []string, *Salvage, error) {
	st, err := loadCheckpointState(path)
	if err != nil {
		return nil, nil, nil, err
	}
	var schemes []string
	if st.id != nil {
		schemes = st.id.schemes
	}
	return st.results, schemes, st.salvage, nil
}
