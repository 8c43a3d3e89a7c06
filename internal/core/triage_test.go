package core

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hpctradeoff/internal/scheme"
	"hpctradeoff/internal/triage"
	"hpctradeoff/internal/workload"
)

// allApps is the full application set; the differential tests cover
// every generator, not a convenient subset.
var allApps = []string{
	"CG", "MG", "FT", "IS", "LU", "BT", "EP", "DT",
	"BigFFT", "CrystalRouter", "AMG", "MiniFE", "LULESH",
	"CNS", "CMC", "Nekbone", "MultiGrid", "FillBoundary",
}

// triageSuite builds n cheap traces rotating through every app and
// machine (the chaos suite's shape).
func triageSuite(n int) []workload.Params {
	machines := []string{"cielito", "edison", "hopper"}
	ps := make([]workload.Params, n)
	for i := 0; i < n; i++ {
		ps[i] = workload.Params{
			App: allApps[i%len(allApps)], Class: "S", Ranks: 16,
			Machine: machines[i%len(machines)], Seed: int64(1000 + i),
		}
	}
	return ps
}

// resultRecordCounts parses the raw journal and counts result records
// per key — loadCheckpoint dedups, so proving "no trace ran twice"
// needs the raw line count.
func resultRecordCounts(t *testing.T, path string) map[string]int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var e checkpointEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			continue
		}
		if e.Key != "" && e.Result != nil {
			counts[e.Key]++
		}
	}
	return counts
}

// TestTriageDifferentialEndpoints pins the tentpole's bit-identity
// contract over the full application set: a tiered campaign at
// threshold 0 equals the run-everything campaign trace for trace, and
// at threshold 1 equals the mfact-only campaign — same results, no
// calibration split, no classifier.
func TestTriageDifferentialEndpoints(t *testing.T) {
	ps := triageSuite(len(allApps))
	schemes := []string{scheme.MFACT, scheme.Packet}

	full, _, err := RunCampaign(ps, CampaignConfig{Workers: 2, Schemes: schemes})
	if err != nil {
		t.Fatal(err)
	}
	modelOnly, _, err := RunCampaign(ps, CampaignConfig{Workers: 2, Schemes: []string{scheme.MFACT}})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("threshold0-equals-run-everything", func(t *testing.T) {
		rs, rep, err := RunCampaign(ps, CampaignConfig{
			Workers: 2, Schemes: schemes,
			Triage: &triage.Policy{Threshold: 0, Seed: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		tr := rep.Triage
		if tr == nil || tr.Calibration != 0 || tr.Escalated != len(ps) || tr.ModelOnly != 0 {
			t.Fatalf("threshold 0 report: %+v", tr)
		}
		for _, d := range tr.Decisions {
			if d.Reason != triage.ReasonEscalateAll || d.Score != 0 {
				t.Fatalf("threshold 0 planned a scored decision: %+v", d)
			}
		}
		for i := range ps {
			if err := sameResult(rs[i], full[i]); err != nil {
				t.Errorf("%s differs from run-everything: %v", ps[i].App, err)
			}
		}
	})

	t.Run("threshold1-equals-mfact-only", func(t *testing.T) {
		rs, rep, err := RunCampaign(ps, CampaignConfig{
			Workers: 2, Schemes: schemes,
			Triage: &triage.Policy{Threshold: 1, Seed: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		tr := rep.Triage
		if tr == nil || tr.Calibration != 0 || tr.Escalated != 0 || tr.ModelOnly != len(ps) {
			t.Fatalf("threshold 1 report: %+v", tr)
		}
		for i := range ps {
			if err := sameResult(rs[i], modelOnly[i]); err != nil {
				t.Errorf("%s differs from mfact-only: %v", ps[i].App, err)
			}
		}
	})
}

// TestTriageIntermediateSubsetsMatchBaselines checks the interior: at
// a working threshold, every trace that ran at full fidelity
// (calibration or escalated) is bit-identical to the run-everything
// baseline, and every cleared trace is bit-identical to the mfact-only
// baseline — triage reroutes traces between two known pipelines, it
// never invents a third result.
func TestTriageIntermediateSubsetsMatchBaselines(t *testing.T) {
	ps := triageSuite(2 * len(allApps))
	schemes := []string{scheme.MFACT, scheme.Packet}

	full, _, err := RunCampaign(ps, CampaignConfig{Workers: 2, Schemes: schemes})
	if err != nil {
		t.Fatal(err)
	}
	modelOnly, _, err := RunCampaign(ps, CampaignConfig{Workers: 2, Schemes: []string{scheme.MFACT}})
	if err != nil {
		t.Fatal(err)
	}

	pol := &triage.Policy{Threshold: 0.5, Calibration: 12, Seed: 1}
	rs, rep, err := RunCampaign(ps, CampaignConfig{Workers: 2, Schemes: schemes, Triage: pol})
	if err != nil {
		t.Fatal(err)
	}
	tr := rep.Triage
	if tr == nil {
		t.Fatal("no triage report")
	}
	t.Logf("intermediate: %s", tr.Summary())
	if tr.Calibration != 12 {
		t.Fatalf("calibration = %d, want 12", tr.Calibration)
	}
	byKey := map[string]triage.Decision{}
	for _, d := range tr.Decisions {
		byKey[d.Key] = d
	}
	for i, p := range ps {
		d, ok := byKey[CampaignKey(p)]
		if !ok {
			t.Fatalf("no decision for %s", CampaignKey(p))
		}
		if d.Escalate {
			if err := sameResult(rs[i], full[i]); err != nil {
				t.Errorf("escalated %s differs from run-everything: %v", d.Key, err)
			}
		} else {
			if err := sameResult(rs[i], modelOnly[i]); err != nil {
				t.Errorf("cleared %s differs from mfact-only: %v", d.Key, err)
			}
		}
	}
	// The interior must actually exercise both sides — an escalate-all
	// degradation here would make the cleared check vacuous.
	if tr.ClassifierDown {
		t.Fatalf("classifier failed to train on the calibration split: %s", tr.ClassifierErr)
	}
	if tr.ModelOnly == 0 || tr.Escalated+tr.Calibration == 0 {
		t.Fatalf("interior threshold did not split the suite: %s", tr.Summary())
	}
}

// TestTriageCrashResumeReplaysDecisions cuts a finished tiered
// campaign's journal inside a decision record — what a kill
// mid-decision-batch leaves — resumes it, and asserts the
// checkpoint-v3 contract: replayed decisions are adopted verbatim (the
// final plan is identical to an uninterrupted run's), completed traces
// are skipped, and no trace ever runs — or escalates — twice.
func TestTriageCrashResumeReplaysDecisions(t *testing.T) {
	ps := triageSuite(2 * len(allApps))
	schemes := []string{scheme.MFACT, scheme.Packet}
	pol := &triage.Policy{Threshold: 0.5, Calibration: 12, Seed: 1}

	// Uninterrupted tiered reference, journaled.
	full := filepath.Join(t.TempDir(), "tiered.jsonl")
	want, wantRep, err := RunCampaign(ps, CampaignConfig{Workers: 1, Schemes: schemes, Triage: pol, CheckpointPath: full})
	if err != nil {
		t.Fatal(err)
	}
	if wantRep.Triage == nil || wantRep.Triage.ClassifierDown {
		t.Fatalf("reference tiered run unusable: %+v", wantRep.Triage)
	}

	// Phase 1 journals 12 calibration results (appends 1–12); phase 3
	// then journals one decision per trace in manifest order. A cut at
	// a seeded byte inside append 16 leaves 3 committed decisions.
	const tornAppend = 16
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	ln := journalLines(data)[tornAppend]
	ckpt := cutJournal(t, data, ln[0]+1+rand.New(rand.NewSource(1)).Intn(ln[1]-ln[0]-1))

	st, err := loadCheckpointState(ckpt)
	if err != nil {
		t.Fatalf("journal with torn decision tail must load: %v", err)
	}
	if len(st.decisions) != 3 {
		t.Fatalf("journal holds %d decisions, want the 3 committed before the kill", len(st.decisions))
	}
	if st.id == nil || st.id.triage == nil || !st.id.triage.Equal(pol.Normalize(len(ps))) {
		t.Fatalf("journal header = %v, want triage %v", st.id, pol)
	}

	// Resume.
	got, rep, err := RunCampaign(ps, CampaignConfig{
		Workers: 1, Schemes: schemes, Triage: pol,
		KeepGoing:      true,
		CheckpointPath: ckpt,
		Resume:         true,
	})
	if err != nil {
		t.Fatalf("resume after kill: %v", err)
	}
	tr := rep.Triage
	if tr == nil {
		t.Fatal("resumed run has no triage report")
	}
	// Three decisions were journaled (manifest indices 0–2), but index 0
	// is a calibration trace — its decision is structural, so the report
	// counts 2 candidate decisions as replayed.
	if tr.Replayed != 2 {
		t.Errorf("resume replayed %d candidate decisions, want 2", tr.Replayed)
	}

	// The resumed plan — replayed decisions plus re-derived ones — must
	// equal the uninterrupted run's decision for decision.
	wantDec := map[string]triage.Decision{}
	for _, d := range wantRep.Triage.Decisions {
		wantDec[d.Key] = d
	}
	if len(tr.Decisions) != len(wantDec) {
		t.Fatalf("resumed run made %d decisions, want %d", len(tr.Decisions), len(wantDec))
	}
	for _, d := range tr.Decisions {
		if w := wantDec[d.Key]; d != w {
			t.Errorf("decision for %s diverged after crash/resume: got %+v, want %+v", d.Key, d, w)
		}
	}

	// Results match the uninterrupted tiered run.
	for i := range ps {
		if err := sameResult(got[i], want[i]); err != nil {
			t.Errorf("%s diverged after crash/resume: %v", CampaignKey(ps[i]), err)
		}
	}

	// No trace ran twice: exactly one result record per key in the raw
	// journal (the decision journal is what makes this possible — the
	// resumed campaign replays the plan instead of re-running it).
	counts := resultRecordCounts(t, ckpt)
	if len(counts) != len(ps) {
		t.Errorf("journal holds results for %d keys, want %d", len(counts), len(ps))
	}
	for key, n := range counts {
		if n != 1 {
			t.Errorf("trace %s has %d result records — it ran more than once", key, n)
		}
	}
}

// TestTriageResumePolicyGate checks that the checkpoint header refuses
// a resume under a different triage policy, in all three mismatch
// directions.
func TestTriageResumePolicyGate(t *testing.T) {
	ps := smallParams("EP", "IS", "DT")
	schemes := []string{scheme.MFACT, scheme.Packet}
	pol := &triage.Policy{Threshold: 0, Seed: 1}

	tieredCkpt := filepath.Join(t.TempDir(), "tiered.jsonl")
	if _, _, err := RunCampaign(ps, CampaignConfig{
		Workers: 1, Schemes: schemes, Triage: pol, CheckpointPath: tieredCkpt,
	}); err != nil {
		t.Fatal(err)
	}
	plainCkpt := filepath.Join(t.TempDir(), "plain.jsonl")
	if _, _, err := RunCampaign(ps, CampaignConfig{
		Workers: 1, Schemes: schemes, CheckpointPath: plainCkpt,
	}); err != nil {
		t.Fatal(err)
	}

	cases := map[string]CampaignConfig{
		"tiered-journal-plain-resume": {
			Workers: 1, Schemes: schemes, CheckpointPath: tieredCkpt, Resume: true,
		},
		"plain-journal-tiered-resume": {
			Workers: 1, Schemes: schemes, Triage: pol, CheckpointPath: plainCkpt, Resume: true,
		},
		"different-policy": {
			Workers: 1, Schemes: schemes,
			Triage:         &triage.Policy{Threshold: 0.7, Seed: 1},
			CheckpointPath: tieredCkpt, Resume: true,
		},
	}
	for name, cfg := range cases {
		if _, _, err := RunCampaign(ps, cfg); err == nil {
			t.Errorf("%s: resume accepted, want policy refusal", name)
		} else if !strings.Contains(err.Error(), "fresh checkpoint path") {
			t.Errorf("%s: error %q does not point at a fresh checkpoint path", name, err)
		}
	}

	// The matching policy still resumes.
	if _, rep, err := RunCampaign(ps, CampaignConfig{
		Workers: 1, Schemes: schemes, Triage: pol, CheckpointPath: tieredCkpt, Resume: true,
	}); err != nil {
		t.Errorf("matching policy refused: %v", err)
	} else if rep.Skipped != len(ps) {
		t.Errorf("matching-policy resume skipped %d, want %d", rep.Skipped, len(ps))
	}
}

// TestTriageWallBudgetDemotes runs an escalate-all campaign under a
// wall budget so small only the first dispatch fits, and asserts the
// demotions finalize with model-only results and journal superseding
// budget-wall decisions for a resume to replay.
func TestTriageWallBudgetDemotes(t *testing.T) {
	ps := smallParams("CG", "MG", "FT", "IS", "LU", "BT")
	schemes := []string{scheme.MFACT, scheme.Packet}
	ckpt := filepath.Join(t.TempDir(), "budget.jsonl")
	pol := &triage.Policy{Threshold: 0, MaxWall: time.Nanosecond, Seed: 1}
	rs, rep, err := RunCampaign(ps, CampaignConfig{
		Workers: 1, Schemes: schemes, Triage: pol, CheckpointPath: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := rep.Triage
	if tr == nil {
		t.Fatal("no triage report")
	}
	// The spend is greedy, not a hard ceiling: the gate demotes at
	// dispatch time, so with one worker the next trace may already be
	// enqueued while the first escalation's wall is still unaccounted.
	// One escalation always completes; the overshoot is at most the one
	// in-flight trace.
	if tr.Escalated < 1 || tr.Escalated > 2 {
		t.Fatalf("wall budget escalated %d of %d, want 1 or 2 (one completed + one in flight): %s",
			tr.Escalated, len(ps), tr.Summary())
	}
	if tr.Demoted != len(ps)-tr.Escalated {
		t.Fatalf("wall budget demoted %d and escalated %d of %d traces: %s",
			tr.Demoted, tr.Escalated, len(ps), tr.Summary())
	}
	fullFidelity := 0
	for _, r := range rs {
		if r == nil {
			t.Fatal("a budget demotion lost its trace")
		}
		if len(r.Schemes) == len(schemes) {
			fullFidelity++
		} else if _, ok := r.Schemes[scheme.MFACT]; !ok || len(r.Schemes) != 1 {
			t.Fatalf("demoted trace has scheme set %v, want mfact only", r.Schemes)
		}
	}
	if fullFidelity != tr.Escalated {
		t.Fatalf("%d traces ran at full fidelity, report says %d escalated", fullFidelity, tr.Escalated)
	}
	// The journal's final decisions record the demotions.
	st, err := loadCheckpointState(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	demoted := 0
	for _, d := range st.decisions {
		if d.Reason == triage.ReasonBudgetWall && !d.Escalate {
			demoted++
		}
	}
	if demoted != tr.Demoted {
		t.Errorf("journal records %d budget-wall demotions, report says %d", demoted, tr.Demoted)
	}
}

// TestTriageRequiresWorkingSelection checks the configuration gate: a
// tiered campaign needs mfact as its cheap tier plus at least one
// scheme to escalate to.
func TestTriageRequiresWorkingSelection(t *testing.T) {
	ps := smallParams("EP")
	pol := &triage.Policy{Threshold: 0.5, Seed: 1}
	if _, _, err := RunCampaign(ps, CampaignConfig{
		Workers: 1, Schemes: []string{scheme.Packet, scheme.Flow}, Triage: pol,
	}); err == nil {
		t.Error("tiered campaign without mfact accepted")
	}
	if _, _, err := RunCampaign(ps, CampaignConfig{
		Workers: 1, Schemes: []string{scheme.MFACT}, Triage: pol,
	}); err == nil {
		t.Error("tiered campaign with nothing to escalate to accepted")
	}
}

func TestParseTriageBudget(t *testing.T) {
	cases := []struct {
		in      string
		count   int
		wall    time.Duration
		wantErr bool
	}{
		{in: ""},
		{in: "12", count: 12},
		{in: "30s", wall: 30 * time.Second},
		{in: "12,30s", count: 12, wall: 30 * time.Second},
		{in: "30s,12", count: 12, wall: 30 * time.Second},
		{in: " 5 , 2m ", count: 5, wall: 2 * time.Minute},
		{in: "0", wantErr: true},
		{in: "-3", wantErr: true},
		{in: "0s", wantErr: true},
		{in: "-10s", wantErr: true},
		{in: "bogus", wantErr: true},
		{in: "12;30s", wantErr: true},
	}
	for _, c := range cases {
		var pol triage.Policy
		err := ParseTriageBudget(c.in, &pol)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseTriageBudget(%q) accepted", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseTriageBudget(%q): %v", c.in, err)
			continue
		}
		if pol.MaxEscalations != c.count || pol.MaxWall != c.wall {
			t.Errorf("ParseTriageBudget(%q) = count %d wall %v, want %d %v",
				c.in, pol.MaxEscalations, pol.MaxWall, c.count, c.wall)
		}
	}
}

// TestTriageScoreFailpointEscalatesAll is a larger-suite version of the
// chaos soak's soakTriage: a calibration split too small to train on (5
// observations; training needs 10) takes the classifier down, and the
// campaign must escalate everything, report the degradation, and end
// with full-fidelity results for every trace. triage's
// TestScoreFaultDegradesRetroactively covers a scoring failure
// mid-plan.
func TestTriageScoreFailpointEscalatesAll(t *testing.T) {
	ps := triageSuite(2 * len(allApps))
	schemes := []string{scheme.MFACT, scheme.Packet}
	const calibration = 5
	rs, rep, err := RunCampaign(ps, CampaignConfig{
		Workers: 1, Schemes: schemes,
		Triage: &triage.Policy{Threshold: 0.5, Calibration: calibration, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := rep.Triage
	if tr == nil || !tr.ClassifierDown {
		t.Fatalf("training failure not reported as classifier-down: %+v", tr)
	}
	if tr.ModelOnly != 0 {
		t.Fatalf("%d traces skipped simulation under a down classifier", tr.ModelOnly)
	}
	if want := len(ps) - calibration; tr.Forced != want {
		t.Errorf("forced escalations = %d, want %d", tr.Forced, want)
	}
	for i, r := range rs {
		if r == nil || len(r.Schemes) != len(schemes) {
			t.Fatalf("trace %s not at full fidelity under a down classifier", CampaignKey(ps[i]))
		}
	}
}
