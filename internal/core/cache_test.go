package core

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/tracecache"
	"hpctradeoff/internal/triage"
	"hpctradeoff/internal/workload"
)

// The trace cache's one non-negotiable contract: a cached campaign is
// bit-identical to an uncached one — across every generator, the tiered
// scheduler, concurrent campaigns over one cache dir, kill-and-resume,
// and on-disk corruption. These tests hold RunCampaign with
// CampaignConfig.Cache against the plain campaign for all of them.

func openTestCache(t *testing.T, dir string) *tracecache.Cache {
	t.Helper()
	c, err := tracecache.Open(dir, tracecache.Options{Warnf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// normalizeSlice strips wall-clock noise from a result slice in place
// and returns it, so slices from different runs compare bit-for-bit.
func normalizeSlice(rs []*TraceResult) []*TraceResult {
	for _, r := range rs {
		if r == nil {
			continue
		}
		for name, o := range r.Schemes {
			o.Wall = 0
			r.Schemes[name] = o
		}
	}
	return rs
}

// appSuite is the differential tests' manifest: one small trace per
// application in the suite, so each identity contract covers every
// generator and every scheme capability combination.
func appSuite() []workload.Params {
	apps := workload.Apps()
	ps := make([]workload.Params, len(apps))
	for i, app := range apps {
		ps[i] = workload.Params{App: app, Class: "S", Ranks: 8, Machine: "edison", Seed: int64(300 + i)}
	}
	return ps
}

func requireSameResultSlices(t *testing.T, label string, ps []workload.Params, want, got []*TraceResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: result for %s differs:\ngot  %+v\nwant %+v",
				label, CampaignKey(ps[i]), got[i], want[i])
		}
	}
}

// TestCachedCampaignBitIdentical is the core differential: the full
// 18-app suite run uncached, cold-cached, and warm-cached must produce
// identical results, and the warm pass must acquire every trace without
// a single materialization (the counter assertion that generation and
// ground-truth stamping were skipped entirely).
func TestCachedCampaignBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite three times")
	}
	ps := appSuite()
	cache := openTestCache(t, filepath.Join(t.TempDir(), "cache"))

	want, _, err := RunCampaign(ps, CampaignConfig{Workers: 2})
	if err != nil {
		t.Fatalf("uncached campaign: %v", err)
	}
	normalizeSlice(want)

	cold, coldRep, err := RunCampaign(ps, CampaignConfig{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatalf("cold cached campaign: %v", err)
	}
	requireSameResultSlices(t, "cold cache", ps, want, normalizeSlice(cold))
	if coldRep.Cache == nil || coldRep.Cache.Misses != int64(len(ps)) || coldRep.Cache.Hits != 0 {
		t.Fatalf("cold cache stats = %+v, want %d misses, 0 hits", coldRep.Cache, len(ps))
	}
	if !strings.Contains(coldRep.Summary(), "trace cache:") {
		t.Errorf("campaign summary %q does not surface cache stats", coldRep.Summary())
	}

	warm, warmRep, err := RunCampaign(ps, CampaignConfig{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatalf("warm cached campaign: %v", err)
	}
	requireSameResultSlices(t, "warm cache", ps, want, normalizeSlice(warm))
	if warmRep.Cache.Misses != 0 || warmRep.Cache.Hits != int64(len(ps)) {
		t.Fatalf("warm cache stats = %+v, want 0 misses, %d hits (generation + stamping must be skipped)",
			warmRep.Cache, len(ps))
	}
}

// TestCachedTriageBitIdentical holds the tiered scheduler to the same
// contract, and additionally proves the escalation pass hits the cache
// entries the provisional model pass created: within one cold tiered
// campaign every trace materializes exactly once, and every escalation
// re-acquisition is a hit.
func TestCachedTriageBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite twice under triage")
	}
	ps := appSuite()
	pol := func() *triage.Policy { return &triage.Policy{Threshold: 0.5, Calibration: 4, Seed: 7} }

	want, wantRep, err := RunCampaign(ps, CampaignConfig{Workers: 2, Triage: pol()})
	if err != nil {
		t.Fatalf("uncached tiered campaign: %v", err)
	}
	normalizeSlice(want)

	cache := openTestCache(t, filepath.Join(t.TempDir(), "cache"))
	got, rep, err := RunCampaign(ps, CampaignConfig{Workers: 2, Triage: pol(), Cache: cache})
	if err != nil {
		t.Fatalf("cached tiered campaign: %v", err)
	}
	requireSameResultSlices(t, "tiered cache", ps, want, normalizeSlice(got))
	if rep.Triage.Escalated != wantRep.Triage.Escalated {
		t.Fatalf("cached triage escalated %d, uncached %d", rep.Triage.Escalated, wantRep.Triage.Escalated)
	}
	if rep.Cache.Misses != int64(len(ps)) {
		t.Errorf("cold tiered campaign materialized %d traces, want %d (one per trace)", rep.Cache.Misses, len(ps))
	}
	if rep.Cache.Hits != int64(rep.Triage.Escalated) {
		t.Errorf("escalation pass hit the cache %d times, want %d (every escalated trace re-acquired warm)",
			rep.Cache.Hits, rep.Triage.Escalated)
	}
	if rep.Triage.Escalated == 0 {
		t.Error("triage policy escalated nothing; the escalation-hits assertion is vacuous")
	}
}

// TestCachedCampaignSharedDir runs two campaigns over disjoint halves
// of the manifest at the same time, each with its own Cache handle on
// one directory (as two processes, say `tracegen -warm` and
// `tradeoff`, would have), and requires their results to match the
// uncached run — then proves the two halves' entries serve a whole
// follow-up campaign warm.
func TestCachedCampaignSharedDir(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite several times")
	}
	ps := appSuite()
	cacheDir := filepath.Join(t.TempDir(), "cache")

	want, _, err := RunCampaign(ps, CampaignConfig{Workers: 2})
	if err != nil {
		t.Fatalf("uncached campaign: %v", err)
	}
	normalizeSlice(want)

	mid := len(ps) / 2
	halves := [][]workload.Params{ps[:mid], ps[mid:]}
	got := make([][]*TraceResult, len(halves))
	reps := make([]*CampaignReport, len(halves))
	errs := make([]error, len(halves))
	var wg sync.WaitGroup
	for h, half := range halves {
		cache := openTestCache(t, cacheDir)
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[h], reps[h], errs[h] = RunCampaign(half, CampaignConfig{Workers: 1, Cache: cache})
		}()
	}
	wg.Wait()
	for h, half := range halves {
		if errs[h] != nil {
			t.Fatalf("half %d: %v", h, errs[h])
		}
		if reps[h].Cache.Misses != int64(len(half)) {
			t.Fatalf("half %d: %d misses, want %d (disjoint halves never share keys)", h, reps[h].Cache.Misses, len(half))
		}
	}
	requireSameResultSlices(t, "cached halves", ps, want, normalizeSlice(append(got[0], got[1]...)))

	// Both halves published into the same dir; a fresh handle (the next
	// run) must see a fully warm cache.
	warm, rep, err := RunCampaign(ps, CampaignConfig{Workers: 2, Cache: openTestCache(t, cacheDir)})
	if err != nil {
		t.Fatalf("warm campaign over the shared cache: %v", err)
	}
	if rep.Cache.Misses != 0 || rep.Cache.Hits != int64(len(ps)) {
		t.Fatalf("shared cache served %d hits / %d misses, want %d / 0",
			rep.Cache.Hits, rep.Cache.Misses, len(ps))
	}
	requireSameResultSlices(t, "warm shared cache", ps, want, normalizeSlice(warm))
}

// TestCachedCampaignKillAndResume kills a cached campaign partway
// (simulated by journaling only a prefix) and resumes with the same
// cache: restored traces are skipped without touching the cache, the
// remainder materializes once, and the final results match the
// uncached baseline.
func TestCachedCampaignKillAndResume(t *testing.T) {
	ps := appSuite()[:6]
	dir := t.TempDir()
	cache := openTestCache(t, filepath.Join(dir, "cache"))

	want, _, err := RunCampaign(ps, CampaignConfig{Workers: 2})
	if err != nil {
		t.Fatalf("uncached campaign: %v", err)
	}
	normalizeSlice(want)

	const prefix = 3
	ckpt := filepath.Join(dir, "run.jsonl")
	if _, _, err := RunCampaign(ps[:prefix], CampaignConfig{Workers: 1, CheckpointPath: ckpt, Cache: cache}); err != nil {
		t.Fatalf("pre-kill prefix: %v", err)
	}
	st := cache.Stats()
	if st.Misses != prefix {
		t.Fatalf("pre-kill prefix materialized %d traces, want %d", st.Misses, prefix)
	}

	got, rep, err := RunCampaign(ps, CampaignConfig{
		Workers: 2, CheckpointPath: ckpt, Resume: true, Cache: cache,
	})
	if err != nil {
		t.Fatalf("resumed campaign: %v", err)
	}
	requireSameResultSlices(t, "kill and resume", ps, want, normalizeSlice(got))
	if rep.Skipped != prefix {
		t.Fatalf("resume skipped %d traces, want %d", rep.Skipped, prefix)
	}
	if rep.Cache.Misses != int64(len(ps)-prefix) || rep.Cache.Hits != 0 {
		t.Fatalf("resume cache stats = %+v, want %d misses, 0 hits (restored traces never touch the cache)",
			rep.Cache, len(ps)-prefix)
	}

	// A full warm re-run (fresh checkpoint) now hits every entry.
	warm, rep2, err := RunCampaign(ps, CampaignConfig{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatalf("warm re-run: %v", err)
	}
	requireSameResultSlices(t, "warm after resume", ps, want, normalizeSlice(warm))
	if rep2.Cache.Misses != 0 || rep2.Cache.Hits != int64(len(ps)) {
		t.Fatalf("warm re-run stats = %+v, want 0 misses, %d hits", rep2.Cache, len(ps))
	}
}

// TestCachedCampaignCorruptEntry flips one byte of a cached trace file
// between campaigns: the damaged entry must be detected, evicted with a
// warning, and regenerated — the campaign's results stay bit-identical
// to the uncached baseline, never silently wrong.
func TestCachedCampaignCorruptEntry(t *testing.T) {
	ps := appSuite()[:3]
	dir := t.TempDir()
	var warned atomic.Int64
	cache, err := tracecache.Open(filepath.Join(dir, "cache"), tracecache.Options{
		Warnf: func(format string, args ...any) {
			if strings.Contains(format, "evicting") {
				warned.Add(1)
			}
			t.Logf(format, args...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	want, _, err := RunCampaign(ps, CampaignConfig{Workers: 1})
	if err != nil {
		t.Fatalf("uncached campaign: %v", err)
	}
	normalizeSlice(want)

	if _, _, err := RunCampaign(ps, CampaignConfig{Workers: 1, Cache: cache}); err != nil {
		t.Fatalf("cold cached campaign: %v", err)
	}

	tracePath, _ := cache.EntryPaths(tracecache.Hash(ps[1]))
	img, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/3] ^= 0x10
	if err := os.WriteFile(tracePath, img, 0o644); err != nil {
		t.Fatal(err)
	}

	got, rep, err := RunCampaign(ps, CampaignConfig{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatalf("campaign over corrupt entry: %v", err)
	}
	requireSameResultSlices(t, "corrupt entry", ps, want, normalizeSlice(got))
	if rep.Cache.Corrupt != 1 || rep.Cache.Misses != 1 || rep.Cache.Hits != int64(len(ps)-1) {
		t.Fatalf("corrupt-entry stats = %+v, want 1 corrupt, 1 miss, %d hits", rep.Cache, len(ps)-1)
	}
	if warned.Load() == 0 {
		t.Fatal("corrupt entry regenerated without a warning")
	}
	if rep.Failed != 0 {
		t.Fatalf("corrupt cache entry failed %d traces; damage must cost regeneration, not results", rep.Failed)
	}
}

// TestCachedDegradedLadder proves that a model-only campaign — the
// selection a triage model pass and a budget demotion run — shares the
// cache with the full campaign that filled it: every trace is a hit,
// and none is materialized again.
func TestCachedDegradedLadder(t *testing.T) {
	ps := appSuite()[:2]
	cache := openTestCache(t, filepath.Join(t.TempDir(), "cache"))
	if _, _, err := RunCampaign(ps, CampaignConfig{Workers: 1, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	rs, rep, err := RunCampaign(ps, CampaignConfig{
		Workers: 1,
		Cache:   cache,
		Schemes: []string{"mfact"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r == nil {
			t.Fatalf("trace %s failed", CampaignKey(ps[i]))
		}
	}
	if rep.Cache.Misses != 0 {
		t.Fatalf("model-only pass over a warm cache materialized %d traces, want 0", rep.Cache.Misses)
	}
}

func TestTradeoffCacheFlagSummary(t *testing.T) {
	// The campaign summary line is the operator's only view of the
	// cache; pin its shape.
	rep := &CampaignReport{Total: 1, Cache: &tracecache.Stats{Hits: 2, Misses: 1}}
	if s := rep.Summary(); !strings.Contains(s, "[trace cache: 2 hits, 1 misses]") {
		t.Errorf("Summary() = %q", s)
	}
}

// TestCachedCampaignProgramDamage damages the replay program stored next
// to each cached trace — missing, truncated, bit-flipped, or stamped by
// an older lowering version — between campaigns. Each time the campaign
// must equal the uncached baseline, serve every trace from the cache
// (no miss: the program is re-lowered from the verified trace, not the
// trace regenerated), count the re-lowering, and leave a repaired
// program that the next campaign maps without lowering.
func TestCachedCampaignProgramDamage(t *testing.T) {
	ps := appSuite()[:3]
	cache := openTestCache(t, filepath.Join(t.TempDir(), "cache"))
	want, _, err := RunCampaign(ps, CampaignConfig{Workers: 1})
	if err != nil {
		t.Fatalf("uncached campaign: %v", err)
	}
	normalizeSlice(want)
	if _, _, err := RunCampaign(ps, CampaignConfig{Workers: 1, Cache: cache}); err != nil {
		t.Fatalf("cold cached campaign: %v", err)
	}

	damage := map[string]func(img []byte) []byte{
		"missing":   func([]byte) []byte { return nil },
		"truncated": func(img []byte) []byte { return img[:len(img)*2/3] },
		"bit-flipped": func(img []byte) []byte {
			img[len(img)/2] ^= 0x04
			return img
		},
		"older-lowering": func(img []byte) []byte {
			// A header that is intact but names the previous lowering
			// version (field at byte 12, header checksum at byte 60).
			binary.LittleEndian.PutUint32(img[12:], mpisim.LoweringVersion-1)
			binary.LittleEndian.PutUint32(img[60:], crc32.Checksum(img[:60], crc32.MakeTable(crc32.Castagnoli)))
			return img
		},
	}
	for _, name := range []string{"missing", "truncated", "bit-flipped", "older-lowering"} {
		for _, p := range ps {
			path := cache.ProgramPath(tracecache.Hash(p))
			img, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if img = damage[name](img); img == nil {
				err = os.Remove(path)
			} else {
				err = os.WriteFile(path, img, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		got, rep, err := RunCampaign(ps, CampaignConfig{Workers: 1, Cache: cache})
		if err != nil {
			t.Fatalf("%s programs: %v", name, err)
		}
		requireSameResultSlices(t, name+" programs", ps, want, normalizeSlice(got))
		if st := rep.Cache; st.Misses != 0 || st.Hits != int64(len(ps)) || st.Corrupt != 0 || st.Relowered != int64(len(ps)) {
			t.Fatalf("%s programs: cache stats %+v, want %d hits re-lowered and nothing else", name, st, len(ps))
		}
		_, rep, err = RunCampaign(ps, CampaignConfig{Workers: 1, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cache.Relowered != 0 || rep.Cache.Hits != int64(len(ps)) {
			t.Fatalf("after repairing %s programs: cache stats %+v, want %d plain hits", name, rep.Cache, len(ps))
		}
	}
}

// TestWarmCampaignNeverLowers runs a warm campaign: every scheme must
// replay the program the cache maps, so the cache counts no miss and no
// re-lowering, and every outcome equals the uncached baseline's.
// Lowering reads every trace event, and tracecache's
// TestWarmHitReadsNoEvents runs all four schemes on a warm hit from a
// source that has none.
func TestWarmCampaignNeverLowers(t *testing.T) {
	ps := appSuite()[:4]
	cache := openTestCache(t, filepath.Join(t.TempDir(), "cache"))
	want, _, err := RunCampaign(ps, CampaignConfig{Workers: 1})
	if err != nil {
		t.Fatalf("uncached campaign: %v", err)
	}
	normalizeSlice(want)
	if _, _, err := RunCampaign(ps, CampaignConfig{Workers: 1, Cache: cache}); err != nil {
		t.Fatalf("cold cached campaign: %v", err)
	}
	got, rep, err := RunCampaign(ps, CampaignConfig{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatalf("warm campaign: %v", err)
	}
	requireSameResultSlices(t, "warm", ps, want, normalizeSlice(got))
	if rep.Cache.Misses != 0 || rep.Cache.Relowered != 0 {
		t.Fatalf("warm cache stats = %+v", rep.Cache)
	}
}
