package tracecache

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hpctradeoff/internal/faultinject"
	"hpctradeoff/internal/trace"
	"hpctradeoff/internal/workload"
)

func testParams(seed int64) workload.Params {
	return workload.Params{App: "CG", Class: "S", Ranks: 4, Machine: "edison", Seed: seed}
}

func mustOpen(t *testing.T, dir string, opts Options) *Cache {
	t.Helper()
	if opts.Warnf == nil {
		opts.Warnf = t.Logf
	}
	c, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// acquire materializes through the real workload path.
func acquire(t testing.TB, c *Cache, p workload.Params) (*trace.Columns, func(), bool) {
	t.Helper()
	cols, release, hit, err := c.Acquire(p, func() (*trace.Columns, error) {
		return workload.MaterializeColumns(p)
	})
	if err != nil {
		t.Fatalf("Acquire(%v): %v", p, err)
	}
	return cols, release, hit
}

func TestKeyFoldsEveryField(t *testing.T) {
	base := testParams(1)
	variants := []workload.Params{
		{App: "MG", Class: "S", Ranks: 4, Machine: "edison", Seed: 1},
		{App: "CG", Class: "A", Ranks: 4, Machine: "edison", Seed: 1},
		{App: "CG", Class: "S", Ranks: 8, Machine: "edison", Seed: 1},
		{App: "CG", Class: "S", Ranks: 4, Machine: "hopper", Seed: 1},
		{App: "CG", Class: "S", Ranks: 4, Machine: "edison", RanksPerNode: 2, Seed: 1},
		{App: "CG", Class: "S", Ranks: 4, Machine: "edison", Seed: 2},
		{App: "CG", Class: "S", Ranks: 4, Machine: "edison", Seed: 1, Iters: 3},
	}
	seen := map[string]workload.Params{Hash(base): base}
	for _, v := range variants {
		h := Hash(v)
		if prev, dup := seen[h]; dup {
			t.Errorf("params %+v and %+v share hash %s", v, prev, h)
		}
		seen[h] = v
	}
	for _, part := range []string{fmt.Sprint(trace.VersionV3), fmt.Sprint(workload.SchemaVersion)} {
		if !strings.Contains(Key(base), part) {
			t.Errorf("Key %q does not fold in version %s", Key(base), part)
		}
	}
}

func TestMissThenHitRoundtrip(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	p := testParams(1)

	fresh, release, hit := acquire(t, c, p)
	if hit {
		t.Fatal("first acquisition reported a hit on an empty cache")
	}
	freshEvents := fresh.NumEvents()
	freshTotal := trace.SourceMeasuredTotal(fresh)
	release()

	cached, release2, hit2 := acquire(t, c, p)
	defer release2()
	if !hit2 {
		t.Fatal("second acquisition missed")
	}
	if got := cached.NumEvents(); got != freshEvents {
		t.Errorf("cached trace has %d events, fresh %d", got, freshEvents)
	}
	if got := trace.SourceMeasuredTotal(cached); got != freshTotal {
		t.Errorf("cached measured total %v, fresh %v", got, freshTotal)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Corrupt != 0 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 0 corrupt", st)
	}
}

// TestHitSkipsMaterialization is the warm-path contract: a hit must
// never invoke the materialize callback (the generate+stamp cost the
// cache exists to avoid).
func TestHitSkipsMaterialization(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	p := testParams(2)
	_, release, _ := acquire(t, c, p)
	release()

	cols, release2, hit, err := c.Acquire(p, func() (*trace.Columns, error) {
		panic("materialize ran on a warm cache")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer release2()
	if !hit || cols == nil {
		t.Fatalf("warm acquisition: hit=%v cols=%v", hit, cols != nil)
	}
}

func TestMaterializeErrorPropagates(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	boom := errors.New("generator exploded")
	_, _, _, err := c.Acquire(testParams(3), func() (*trace.Columns, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("Acquire error = %v, want %v", err, boom)
	}
	if st := c.Stats(); st.Misses != 0 {
		t.Errorf("failed materialization counted as a miss: %+v", st)
	}
	if entries, _ := c.List(); len(entries) != 0 {
		t.Errorf("failed materialization published %d entries", len(entries))
	}
}

// TestCorruptTraceEvicted flips one byte of a published trace file at
// every offset class (header, column data, tail) and asserts detection,
// eviction, regeneration, and a warning — never a wrong result.
func TestCorruptTraceEvicted(t *testing.T) {
	for _, tc := range []struct {
		name string
		at   func(n int) int
	}{
		{"header", func(int) int { return 3 }},
		{"middle", func(n int) int { return n / 2 }},
		{"tail", func(n int) int { return n - 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var warns atomic.Int64
			c := mustOpen(t, t.TempDir(), Options{Warnf: func(format string, args ...any) {
				warns.Add(1)
				t.Logf(format, args...)
			}})
			p := testParams(4)
			fresh, release, _ := acquire(t, c, p)
			want := trace.SourceMeasuredTotal(fresh)
			release()

			tp, _ := c.EntryPaths(Hash(p))
			img, err := os.ReadFile(tp)
			if err != nil {
				t.Fatal(err)
			}
			img[tc.at(len(img))] ^= 0x40
			if err := os.WriteFile(tp, img, 0o644); err != nil {
				t.Fatal(err)
			}

			cols, release2, hit := acquire(t, c, p)
			defer release2()
			if hit {
				t.Fatal("corrupt entry served as a hit")
			}
			if got := trace.SourceMeasuredTotal(cols); got != want {
				t.Errorf("regenerated trace measured %v, want %v", got, want)
			}
			if st := c.Stats(); st.Corrupt != 1 {
				t.Errorf("corrupt count = %d, want 1", st.Corrupt)
			}
			if warns.Load() == 0 {
				t.Error("corrupt eviction produced no warning")
			}
			// The regenerated entry must be healthy again.
			_, release3, hit3 := acquire(t, c, p)
			release3()
			if !hit3 {
				t.Error("entry not regenerated after corrupt eviction")
			}
		})
	}
}

func TestCorruptSidecarEvicted(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(path string, t *testing.T)
	}{
		{"truncated", func(path string, t *testing.T) {
			data, _ := os.ReadFile(path)
			os.WriteFile(path, data[:len(data)/3], 0o644)
		}},
		{"bit-flip", func(path string, t *testing.T) {
			data, _ := os.ReadFile(path)
			data[len(data)/4] ^= 1
			os.WriteFile(path, data, 0o644)
		}},
		{"missing-trace", func(path string, t *testing.T) {
			os.Remove(strings.TrimSuffix(path, sidecarSuffix) + traceSuffix)
		}},
		{"truncated-trace", func(path string, t *testing.T) {
			tp := strings.TrimSuffix(path, sidecarSuffix) + traceSuffix
			data, _ := os.ReadFile(tp)
			os.WriteFile(tp, data[:len(data)-7], 0o644)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := mustOpen(t, t.TempDir(), Options{})
			p := testParams(5)
			_, release, _ := acquire(t, c, p)
			release()
			_, scPath := c.EntryPaths(Hash(p))
			tc.damage(scPath, t)

			_, release2, hit := acquire(t, c, p)
			release2()
			if hit {
				t.Fatal("damaged entry served as a hit")
			}
			_, release3, hit3 := acquire(t, c, p)
			release3()
			if !hit3 {
				t.Error("entry not healthy after eviction + regeneration")
			}
		})
	}
}

// TestOpenFailpoint proves the tracecache/open failpoint is treated as
// corruption: evict, warn, regenerate.
func TestOpenFailpoint(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	p := testParams(6)
	_, release, _ := acquire(t, c, p)
	release()

	if err := faultinject.Arm(1, []faultinject.Rule{{
		Site: "tracecache/open", Action: faultinject.ActError, Hits: []uint64{1}, MaxFires: 1,
	}}); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disarm()

	_, release2, hit := acquire(t, c, p)
	release2()
	if hit {
		t.Fatal("failpoint firing still served a hit")
	}
	if st := c.Stats(); st.Corrupt != 1 || st.Misses != 2 {
		t.Errorf("stats after failpoint = %+v, want corrupt 1, misses 2", st)
	}
	_, release3, hit3 := acquire(t, c, p)
	release3()
	if !hit3 {
		t.Error("entry not regenerated after failpoint eviction")
	}
}

// TestSchemaVersionInvalidates proves a sidecar claiming a different
// schema version never serves, even with valid checksums.
func TestSchemaVersionInvalidates(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	p := testParams(7)
	_, release, _ := acquire(t, c, p)
	release()

	// Rewrite the sidecar with a bumped workload schema and a valid
	// self-checksum, as a build with a newer generator would have.
	tp, scPath := c.EntryPaths(Hash(p))
	img, _ := os.ReadFile(tp)
	crc := fmt.Sprintf("%08x", crc32.Checksum(img, castagnoli))
	sc := &sidecar{Version: sidecarVersion, Key: Key(p), Codec: trace.VersionV3,
		WorkloadSchema: workload.SchemaVersion + 1, Size: int64(len(img)), CRC32C: crc}
	data, err := encodeSidecar(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(scPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, release2, hit := acquire(t, c, p)
	release2()
	if hit {
		t.Fatal("entry from a different workload schema served as a hit")
	}
}

func TestSingleflight(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	p := testParams(8)
	var materializations atomic.Int64
	const workers = 8
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cols, release, _, err := c.Acquire(p, func() (*trace.Columns, error) {
				materializations.Add(1)
				return workload.MaterializeColumns(p)
			})
			if err != nil {
				t.Error(err)
				return
			}
			if cols.NumEvents() == 0 {
				t.Error("empty columns from concurrent acquire")
			}
			release()
		}()
	}
	wg.Wait()
	if n := materializations.Load(); n != 1 {
		t.Errorf("%d goroutines materialized, want exactly 1 (singleflight)", n)
	}
	if st := c.Stats(); st.Hits != workers-1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want %d hits, 1 miss", st, workers-1)
	}
}

func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	// Size one entry to derive a cap that holds roughly two of the four.
	probe := mustOpen(t, dir, Options{})
	_, release, _ := acquire(t, probe, testParams(10))
	release()
	entries, err := probe.List()
	if err != nil || len(entries) != 1 {
		t.Fatalf("probe listing: %v, %d entries", err, len(entries))
	}
	per := entries[0].Bytes

	c := mustOpen(t, dir, Options{MaxBytes: 2*per + per/2, Warnf: t.Logf})
	for seed := int64(11); seed <= 13; seed++ {
		_, rel, _ := acquire(t, c, testParams(seed))
		rel()
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no LRU evictions under a %d-byte cap after 4 same-size entries", 2*per+per/2)
	}
	left, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range left {
		total += e.Bytes
	}
	if total > 2*per+per/2 {
		t.Errorf("cache holds %d bytes, cap %d", total, 2*per+per/2)
	}
	// The newest entry must have survived (eviction is LRU).
	if _, rel, hit := acquire(t, c, testParams(13)); true {
		rel()
		if !hit {
			t.Error("most recently published entry was evicted")
		}
	}
}

func TestListReportsEntries(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	p := testParams(14)
	_, release, _ := acquire(t, c, p)
	release()
	entries, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("List returned %d entries, want 1", len(entries))
	}
	e := entries[0]
	if e.Key != Key(p) || e.Hash != Hash(p) || e.Codec != trace.VersionV3 ||
		e.WorkloadSchema != workload.SchemaVersion || e.Bytes <= 0 || e.Err != nil {
		t.Errorf("List entry = %+v", e)
	}
}

// TestCrashedPublishLeavesNoEntry simulates a crash between the trace
// rename and the sidecar rename: the orphan trace file must read as a
// miss (no sidecar, nothing trusted), and republishing must heal it.
func TestCrashedPublishLeavesNoEntry(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	p := testParams(15)
	_, release, _ := acquire(t, c, p)
	release()
	_, scPath := c.EntryPaths(Hash(p))
	if err := os.Remove(scPath); err != nil {
		t.Fatal(err)
	}
	_, release2, hit := acquire(t, c, p)
	release2()
	if hit {
		t.Fatal("orphan trace file without a sidecar served as a hit")
	}
	if st := c.Stats(); st.Corrupt != 0 {
		t.Errorf("sidecar-less entry counted as corruption (%+v); it is a plain miss", st)
	}
	_, release3, hit3 := acquire(t, c, p)
	release3()
	if !hit3 {
		t.Error("republish after orphaned trace did not heal the entry")
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open("", Options{}); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Hits: 3, Misses: 1, Corrupt: 2, Evictions: 4, BytesWritten: 1e6, BytesMapped: 2e6}
	str := s.String()
	for _, want := range []string{"3 hits", "1 misses", "2 corrupt", "4 LRU", "1.0 MB written", "2.0 MB mapped"} {
		if !strings.Contains(str, want) {
			t.Errorf("Stats.String() = %q, missing %q", str, want)
		}
	}
}

// TestSharedDirAcrossCaches is the cross-process shape in-process: two
// Cache handles over one directory (as a `tracegen -warm` process and a
// campaign would hold) serve each other's entries.
func TestSharedDirAcrossCaches(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, Options{})
	b := mustOpen(t, dir, Options{})
	p := testParams(16)
	_, release, _ := acquire(t, a, p)
	release()
	_, release2, hit := acquire(t, b, p)
	release2()
	if !hit {
		t.Fatal("second cache handle over the same dir missed")
	}
	if _, err := os.Stat(filepath.Join(dir, Hash(p)+traceSuffix)); err != nil {
		t.Fatal(err)
	}
}
