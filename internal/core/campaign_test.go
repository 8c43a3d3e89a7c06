package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hpctradeoff/internal/des"
	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/simnet"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/trace"
	"hpctradeoff/internal/workload"
)

// The acceptance scenario from the robustness issue: a keep-going
// campaign with one injected hanging trace (cut off by an event
// budget) and one injected panicking trace completes, renders tables
// and figures from the survivors with an exclusion note, and a
// subsequent resume run re-executes only the failed traces.
func TestCampaignKeepGoingAndResume(t *testing.T) {
	good1 := workload.Params{App: "EP", Class: "S", Ranks: 16, Machine: "cielito", Seed: 1}
	hang := workload.Params{App: "CG", Class: "S", Ranks: 16, Machine: "edison", Seed: 2}
	boom := workload.Params{App: "FT", Class: "S", Ranks: 16, Machine: "hopper", Seed: 3}
	good2 := workload.Params{App: "IS", Class: "S", Ranks: 16, Machine: "edison", Seed: 4}
	ps := []workload.Params{good1, hang, boom, good2}

	faulty := func(p workload.Params, ro RunOptions) (*TraceResult, error) {
		switch p.App {
		case "CG":
			// Simulate a runaway: a tiny event budget makes the real
			// pipeline abort with ErrBudgetExceeded, exactly as a
			// -timeout'd hang would.
			ro.MaxEvents = 50
			return RunOneOpts(p, ro)
		case "FT":
			panic("injected fault: simulator bug")
		}
		return RunOneOpts(p, ro)
	}

	ckpt := filepath.Join(t.TempDir(), "campaign.jsonl")
	rs, rep, err := RunCampaign(ps, CampaignConfig{
		Workers:        2,
		KeepGoing:      true,
		CheckpointPath: ckpt,
		Runner:         faulty,
	})
	if err != nil {
		t.Fatalf("keep-going campaign returned error: %v", err)
	}
	if len(rs) != 4 {
		t.Fatalf("got %d results, want 4 (aligned with manifest)", len(rs))
	}
	if rs[0] == nil || rs[3] == nil {
		t.Fatalf("healthy traces did not survive: %v, %v", rs[0], rs[3])
	}
	if rs[1] != nil || rs[2] != nil {
		t.Fatalf("failed traces should leave nil entries, got %v, %v", rs[1], rs[2])
	}
	if rep.Succeeded != 2 || rep.Failed != 2 || rep.Skipped != 0 {
		t.Errorf("report = %+v, want 2 succeeded / 2 failed / 0 skipped", rep)
	}

	kinds := map[string]*TraceError{}
	for _, te := range rep.Errors {
		kinds[te.ID] = te
	}
	if te := kinds[CampaignKey(hang)]; te == nil || te.Kind != KindBudget {
		t.Errorf("hanging trace error = %v, want KindBudget", te)
	} else if !errors.Is(te, des.ErrBudgetExceeded) {
		t.Errorf("hanging trace error does not unwrap to ErrBudgetExceeded: %v", te)
	}
	if te := kinds[CampaignKey(boom)]; te == nil || te.Kind != KindPanic {
		t.Errorf("panicking trace error = %v, want KindPanic", te)
	} else {
		if !strings.Contains(te.Err.Error(), "injected fault") {
			t.Errorf("panic message lost: %v", te.Err)
		}
		if te.Stack == "" {
			t.Error("panic TraceError has no stack")
		}
	}

	// Tables and figures render from the survivors, annotated with the
	// number of excluded traces.
	tbl := BuildTable1(rs)
	if tbl.Excluded != 2 {
		t.Errorf("Table1.Excluded = %d, want 2", tbl.Excluded)
	}
	if out := tbl.Render(); !strings.Contains(out, "2 failed traces excluded") {
		t.Errorf("Table1 render missing exclusion note:\n%s", out)
	}
	if out := BuildFigure1(rs, 0).Render(); !strings.Contains(out, "2 failed traces excluded") {
		t.Errorf("Figure1 render missing exclusion note:\n%s", out)
	}

	// Resume: only the two failed traces re-execute (cleanly this time).
	var mu sync.Mutex
	ran := map[string]int{}
	counting := func(p workload.Params, ro RunOptions) (*TraceResult, error) {
		mu.Lock()
		ran[p.App]++
		mu.Unlock()
		return RunOneOpts(p, ro)
	}
	rs2, rep2, err := RunCampaign(ps, CampaignConfig{
		Workers:        2,
		KeepGoing:      true,
		CheckpointPath: ckpt,
		Resume:         true,
		Runner:         counting,
	})
	if err != nil {
		t.Fatalf("resumed campaign returned error: %v", err)
	}
	if rep2.Skipped != 2 || rep2.Succeeded != 2 || rep2.Failed != 0 {
		t.Errorf("resume report = %+v, want 2 skipped / 2 succeeded / 0 failed", rep2)
	}
	if len(ran) != 2 || ran["CG"] != 1 || ran["FT"] != 1 {
		t.Errorf("resume re-executed %v, want exactly CG and FT once each", ran)
	}
	for i, r := range rs2 {
		if r == nil {
			t.Fatalf("resumed campaign left result %d nil", i)
		}
	}
	// The restored entries are the first run's results.
	if rs2[0].ID != rs[0].ID || rs2[0].Measured != rs[0].Measured {
		t.Errorf("restored result differs: %v vs %v", rs2[0].ID, rs[0].ID)
	}
	if tbl := BuildTable1(rs2); tbl.Excluded != 0 {
		t.Errorf("full resume still excludes %d traces", tbl.Excluded)
	}
}

// TestCampaignSurvivesCausalityBug is the end-to-end proof of the
// panic-isolation chain for a model bug deep inside a simulator run: an
// event that schedules into the past makes the DES engine panic from
// inside its event loop, and the campaign must surface that as a
// classified KindPanic TraceError carrying the stack, while the rest of
// the campaign completes normally.
func TestCampaignSurvivesCausalityBug(t *testing.T) {
	good1 := workload.Params{App: "EP", Class: "S", Ranks: 16, Machine: "cielito", Seed: 1}
	buggy := workload.Params{App: "MG", Class: "S", Ranks: 16, Machine: "edison", Seed: 2}
	good2 := workload.Params{App: "IS", Class: "S", Ranks: 16, Machine: "edison", Seed: 3}
	ps := []workload.Params{good1, buggy, good2}

	runner := func(p workload.Params, ro RunOptions) (*TraceResult, error) {
		if p.App != "MG" {
			return RunOneOpts(p, ro)
		}
		// Drive a real engine through a chain of events whose eighth link
		// commits the causality bug mid-run.
		var eng des.Engine
		var tick func(left int) func()
		tick = func(left int) func() {
			return func() {
				if left == 0 {
					eng.At(eng.Now()-simtime.Microsecond, func() {})
					return
				}
				eng.After(simtime.Microsecond, tick(left-1))
			}
		}
		eng.At(0, tick(7))
		eng.Run() // panics inside the event loop
		return nil, fmt.Errorf("unreachable: causality bug did not fire")
	}

	rs, rep, err := RunCampaign(ps, CampaignConfig{
		Workers:   2,
		KeepGoing: true,
		Runner:    runner,
	})
	if err != nil {
		t.Fatalf("keep-going campaign returned error: %v", err)
	}
	if rs[0] == nil || rs[2] == nil {
		t.Fatalf("healthy traces did not survive the causality bug: %v, %v", rs[0], rs[2])
	}
	if rep.Succeeded != 2 || rep.Failed != 1 {
		t.Fatalf("report %+v, want 2 succeeded / 1 failed", rep)
	}
	te := rep.Errors[0]
	if te.ID != CampaignKey(buggy) {
		t.Errorf("failure attributed to %q, want %q", te.ID, CampaignKey(buggy))
	}
	if te.Kind != KindPanic {
		t.Errorf("causality bug classified as %q, want %q", te.Kind, KindPanic)
	}
	if !strings.Contains(te.Err.Error(), "scheduling into the past") {
		t.Errorf("error %v does not name the causality bug", te.Err)
	}
	if te.Stack == "" {
		t.Error("panic TraceError carries no stack")
	}
}

// Surviving traces of a keep-going campaign must be byte-identical to
// a clean run of the same params: the fault machinery may not perturb
// healthy results.
func TestCampaignSurvivorsMatchCleanRun(t *testing.T) {
	good := workload.Params{App: "EP", Class: "S", Ranks: 16, Machine: "cielito", Seed: 11}
	bad := workload.Params{App: "MG", Class: "S", Ranks: 16, Machine: "edison", Seed: 12}

	runner := func(p workload.Params, ro RunOptions) (*TraceResult, error) {
		if p.App == "MG" {
			panic("injected")
		}
		return RunOneOpts(p, ro)
	}
	rs, _, err := RunCampaign([]workload.Params{good, bad}, CampaignConfig{
		Workers:   2,
		KeepGoing: true,
		Runner:    runner,
	})
	if err != nil || rs[0] == nil {
		t.Fatalf("campaign: err=%v rs[0]=%v", err, rs[0])
	}

	clean, err := RunOne(good)
	if err != nil {
		t.Fatal(err)
	}
	got, want := rs[0], clean
	if got.ID != want.ID || got.Measured != want.Measured ||
		got.MeasuredComm != want.MeasuredComm || got.Events != want.Events {
		t.Errorf("survivor differs from clean run:\ngot  %v %v %v %d\nwant %v %v %v %d",
			got.ID, got.Measured, got.MeasuredComm, got.Events,
			want.ID, want.Measured, want.MeasuredComm, want.Events)
	}
	if !reflect.DeepEqual(got.Features, want.Features) {
		t.Errorf("feature vectors differ")
	}
	for m, s := range want.Schemes {
		g := got.Schemes[m]
		if g.OK != s.OK || g.Total != s.Total || g.Events != s.Events {
			t.Errorf("scheme %s differs: got {OK:%v Total:%v Events:%d}, want {OK:%v Total:%v Events:%d}",
				m, g.OK, g.Total, g.Events, s.OK, s.Total, s.Events)
		}
	}
}

// A failing trace runs once, with exactly the manifest's Params,
// whatever its failure kind: the campaign never re-runs it, least of
// all under a derived seed, which would journal a different trace
// under the manifest's key.
// A transient failure (here a panic in the runner) is not retried: the
// campaign isolates it as a typed KindPanic error after exactly one
// attempt with the manifest's own Params, and the next trace still runs.
func TestCampaignRetriesTransientFailures(t *testing.T) {
	p1 := workload.Params{App: "EP", Class: "S", Ranks: 16, Machine: "cielito", Seed: 21}
	p2 := workload.Params{App: "IS", Class: "S", Ranks: 16, Machine: "cielito", Seed: 23}
	var mu sync.Mutex
	var seen []workload.Params
	runner := func(q workload.Params, ro RunOptions) (*TraceResult, error) {
		mu.Lock()
		seen = append(seen, q)
		mu.Unlock()
		if q == p1 {
			panic("flaky environment")
		}
		return RunOneOpts(q, ro)
	}
	rs, rep, err := RunCampaign([]workload.Params{p1, p2}, CampaignConfig{
		Workers:   1,
		KeepGoing: true,
		Runner:    runner,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != p1 || seen[1] != p2 {
		t.Errorf("runner saw %v, want each manifest entry exactly once", seen)
	}
	if rs[0] != nil || rs[1] == nil || rep.Failed != 1 || rep.Succeeded != 1 {
		t.Errorf("rs=%v failed=%d succeeded=%d, want nil+result / 1 / 1", rs, rep.Failed, rep.Succeeded)
	}
	if len(rep.Errors) != 1 || rep.Errors[0].Kind != KindPanic || rep.Errors[0].ID != CampaignKey(p1) {
		t.Errorf("errors = %v, want one panic error for %s", rep.Errors, CampaignKey(p1))
	}
}

func TestCampaignDoesNotRetryDeterministicFailures(t *testing.T) {
	p := workload.Params{App: "EP", Class: "S", Ranks: 16, Machine: "cielito", Seed: 22}
	var mu sync.Mutex
	var seen []workload.Params
	runner := func(q workload.Params, ro RunOptions) (*TraceResult, error) {
		mu.Lock()
		seen = append(seen, q)
		mu.Unlock()
		return nil, fmt.Errorf("runaway: %w", des.ErrBudgetExceeded)
	}
	_, rep, err := RunCampaign([]workload.Params{p}, CampaignConfig{
		Workers:   1,
		KeepGoing: true,
		Runner:    runner,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != p {
		t.Errorf("runner saw %v, want exactly the manifest's params once", seen)
	}
	if len(rep.Errors) != 1 || rep.Errors[0].Kind != KindBudget {
		t.Errorf("errors = %v", rep.Errors)
	}
}

// Fail-fast mode still reports every failure it observed, joined into
// one error, not just the first.
func TestCampaignFailFastAggregatesErrors(t *testing.T) {
	p1 := workload.Params{App: "EP", Class: "S", Ranks: 16, Machine: "cielito", Seed: 31}
	p2 := workload.Params{App: "IS", Class: "S", Ranks: 16, Machine: "edison", Seed: 32}
	runner := func(q workload.Params, ro RunOptions) (*TraceResult, error) {
		return nil, fmt.Errorf("%w: synthetic", trace.ErrInvalid)
	}
	_, rep, err := RunCampaign([]workload.Params{p1, p2}, CampaignConfig{
		Workers: 2,
		Runner:  runner,
	})
	if err == nil {
		t.Fatal("fail-fast campaign with failures returned nil error")
	}
	if !errors.Is(err, trace.ErrInvalid) {
		t.Errorf("joined error does not unwrap the cause: %v", err)
	}
	for _, te := range rep.Errors {
		if te.Kind != KindInvalidInput {
			t.Errorf("kind = %s, want invalid-input", te.Kind)
		}
		if !strings.Contains(err.Error(), te.ID) {
			t.Errorf("joined error omits trace %s:\n%v", te.ID, err)
		}
	}
	if len(rep.Errors) == 0 {
		t.Error("no errors recorded")
	}
}

func TestCampaignResumeRequiresCheckpoint(t *testing.T) {
	_, _, err := RunCampaign(nil, CampaignConfig{Resume: true})
	if err == nil {
		t.Fatal("resume without checkpoint path should be rejected")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want ErrorKind
	}{
		{fmt.Errorf("x: %w", des.ErrBudgetExceeded), KindBudget},
		{fmt.Errorf("x: %w", des.ErrCanceled), KindCanceled},
		{fmt.Errorf("x: %w", mpisim.ErrDeadlock), KindDeadlock},
		{fmt.Errorf("x: %w", mpisim.ErrUnknownRequest), KindInvalidInput},
		{fmt.Errorf("x: %w", trace.ErrInvalid), KindInvalidInput},
		{fmt.Errorf("x: %w", simnet.ErrUnsupportedTrace), KindUnsupported},
		{errors.New("mystery"), KindUnknown},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %s, want %s", c.err, got, c.want)
		}
	}
}

func TestCheckpointRoundTripAndTruncation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.jsonl")
	p := workload.Params{App: "EP", Class: "S", Ranks: 16, Machine: "cielito", Seed: 41}
	r := &TraceResult{Params: p, ID: "EP.S.x16.cielito", Measured: 12345}

	ck, err := OpenCheckpointSpec(path, []string{"mfact", "packet"}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Append(CampaignKey(p), r); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a truncated trailing line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"version":3,"key":"half-writ`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, err := loadCheckpoint(path)
	if err != nil {
		t.Fatalf("truncated journal must load: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("loaded %d entries, want 1", len(got))
	}
	lr := got[CampaignKey(p)]
	if lr == nil || lr.Measured != r.Measured || lr.ID != r.ID {
		t.Errorf("round-trip mismatch: %+v", lr)
	}

	// A missing journal is an empty one.
	empty, err := loadCheckpoint(filepath.Join(dir, "absent.jsonl"))
	if err != nil || len(empty) != 0 {
		t.Errorf("missing journal: got %v, %v", empty, err)
	}
}

// A journal carrying a different schema version — including a legacy
// pre-scheme-registry version-1 record — must be rejected loudly, not
// silently skipped (that would quietly re-run the entire campaign).
func TestCheckpointRejectsWrongVersion(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"legacy-v1":  `{"version":1,"key":"CG.A.x64.hopper.n0.s1.i0","result":{"ID":"CG.A.x64.hopper","Model":null,"Sims":{}}}` + "\n",
		"legacy-v2":  `{"version":2,"header":true,"schemes":["mfact","packet"]}` + "\n",
		"future-v4":  `{"version":4,"header":true,"schemes":["mfact"]}` + "\n",
		"no-version": `{"key":"CG.A.x64.hopper.n0.s1.i0","result":{"ID":"x"}}` + "\n",
	}
	for name, line := range cases {
		path := filepath.Join(dir, name+".jsonl")
		if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := loadCheckpoint(path)
		if !errors.Is(err, ErrCheckpointVersion) {
			t.Errorf("%s: err = %v, want ErrCheckpointVersion", name, err)
		}
	}
}

// Resuming a checkpoint written under a different scheme selection must
// fail: its records do not cover the schemes this campaign needs.
func TestCampaignRejectsSchemeSetMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	p := workload.Params{App: "EP", Class: "S", Ranks: 16, Machine: "cielito", Seed: 51}

	ck, err := OpenCheckpointSpec(path, []string{"mfact", "packet"}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()

	_, _, err = RunCampaign([]workload.Params{p}, CampaignConfig{
		Workers:        1,
		CheckpointPath: path,
		Resume:         true,
	})
	if err == nil || !strings.Contains(err.Error(), "schemes") {
		t.Fatalf("scheme-set mismatch not rejected: %v", err)
	}

	// The same selection (order-insensitive) resumes fine.
	rs, _, err := RunCampaign([]workload.Params{p}, CampaignConfig{
		Workers:        1,
		Schemes:        []string{"packet", "mfact"},
		CheckpointPath: path,
		Resume:         true,
	})
	if err != nil {
		t.Fatalf("matching scheme set rejected: %v", err)
	}
	if rs[0] == nil {
		t.Fatal("campaign produced no result")
	}
	if _, ok := rs[0].Schemes["mfact"]; !ok {
		t.Error("mfact outcome missing")
	}
	if _, ok := rs[0].Schemes["flow"]; ok {
		t.Error("flow ran despite not being selected")
	}
}

func TestSaveResultsFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.json")
	v1 := []*TraceResult{{ID: "a", Measured: 1}}
	v2 := []*TraceResult{{ID: "b", Measured: 2}, {ID: "c", Measured: 3}}

	for _, rs := range [][]*TraceResult{v1, v2} {
		if err := SaveResultsFile(path, rs); err != nil {
			t.Fatal(err)
		}
		got, err := LoadResultsFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(rs) || got[0].ID != rs[0].ID {
			t.Errorf("round trip: got %d results, want %d", len(got), len(rs))
		}
	}

	// No temp droppings left behind after successful writes.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "results.json" {
			t.Errorf("leftover file %s in results dir", e.Name())
		}
	}

	// A failed write (unwritable target dir) must not clobber anything
	// and must clean up its temp file.
	if err := SaveResultsFile(filepath.Join(dir, "missing", "r.json"), v1); err == nil {
		t.Error("save into missing directory should fail")
	}
}
