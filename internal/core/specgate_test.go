package core

import (
	"path/filepath"
	"strings"
	"testing"

	"hpctradeoff/internal/workload"
)

func quickRunner(p workload.Params, ro RunOptions) (*TraceResult, error) {
	return &TraceResult{Params: p, ID: CampaignKey(p)}, nil
}

// TestSpecHashResumeGate holds the spec hash, a part of the journal
// identity, to symmetric resume semantics: a journal written under one
// spec resumes only under the identical spec — not under a different
// one, not under none, and a journal written with no spec hash (a
// library caller's; every cmd/tradeoff campaign has one) never
// satisfies a campaign that has one.
func TestSpecHashResumeGate(t *testing.T) {
	ps := []workload.Params{
		{App: "EP", Class: "S", Ranks: 16, Machine: "cielito", Seed: 1},
		{App: "IS", Class: "S", Ranks: 16, Machine: "edison", Seed: 2},
	}
	run := func(ckpt, spec string, resume bool) (*CampaignReport, error) {
		_, rep, err := RunCampaign(ps, CampaignConfig{
			Workers:        1,
			CheckpointPath: ckpt,
			Resume:         resume,
			Runner:         quickRunner,
			SpecHash:       spec,
		})
		return rep, err
	}

	ckpt := filepath.Join(t.TempDir(), "spec.jsonl")
	if _, err := run(ckpt, "spec-aaaa", false); err != nil {
		t.Fatalf("initial spec-driven campaign: %v", err)
	}

	for name, spec := range map[string]string{
		"different spec": "spec-bbbb",
		"no spec":        "",
	} {
		if _, err := run(ckpt, spec, true); err == nil {
			t.Errorf("resume with %s silently accepted a journal written under spec-aaaa", name)
		} else if !strings.Contains(err.Error(), "spec") {
			t.Errorf("resume with %s failed for the wrong reason: %v", name, err)
		}
	}

	rep, err := run(ckpt, "spec-aaaa", true)
	if err != nil {
		t.Fatalf("resume under the matching spec: %v", err)
	}
	if rep.Skipped != len(ps) {
		t.Errorf("matching-spec resume skipped %d of %d completed traces", rep.Skipped, len(ps))
	}

	// The reverse direction: a journal with no spec hash must refuse a
	// resume under one (and continue to accept a resume under none).
	flat := filepath.Join(t.TempDir(), "flat.jsonl")
	if _, err := run(flat, "", false); err != nil {
		t.Fatalf("flag-driven campaign: %v", err)
	}
	if _, err := run(flat, "spec-aaaa", true); err == nil {
		t.Error("spec-driven resume silently accepted a flag-driven journal")
	}
	if rep, err := run(flat, "", true); err != nil || rep.Skipped != len(ps) {
		t.Errorf("flag-driven resume of a flag-driven journal: err=%v skipped=%d", err, rep.Skipped)
	}
}

// TestCampaignKeyNoiseSuffix pins the conditional key format: zero
// noise keeps the exact historical key (old journals stay resumable),
// non-zero noise extends it, and distinct amplitudes never collide.
func TestCampaignKeyNoiseSuffix(t *testing.T) {
	p := workload.Params{App: "CG", Class: "B", Ranks: 64, Machine: "edison", Seed: 5, Iters: 2}
	if got, want := CampaignKey(p), "CG.B.x64.edison.n0.s5.i2"; got != want {
		t.Errorf("zero-noise CampaignKey = %q, want the historical %q", got, want)
	}
	q := p
	q.Noise = workload.Noise{LinkJitter: 0.25, Seed: 3}
	if CampaignKey(q) == CampaignKey(p) {
		t.Error("noisy and zero-noise Params share a campaign key")
	}
	r := q
	r.Noise.LinkJitter = 0.5
	if CampaignKey(r) == CampaignKey(q) {
		t.Error("two link-jitter amplitudes share a campaign key")
	}
}
