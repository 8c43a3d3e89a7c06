package tracecache

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"reflect"
	"testing"

	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/trace"
	"hpctradeoff/internal/workload"
)

func acquireProgram(t *testing.T, c *Cache, p workload.Params) (*trace.Columns, *mpisim.Program, func(), bool) {
	t.Helper()
	cols, prog, release, hit, err := c.AcquireProgram(p, func() (*trace.Columns, *mpisim.Program, error) {
		return workload.MaterializeReplay(p, workload.Limits{})
	})
	if err != nil {
		t.Fatalf("AcquireProgram(%v): %v", p, err)
	}
	return cols, prog, release, hit
}

// TestAcquireProgramServesLoweredProgram: a miss returns the stamper's
// program and stores it; a hit maps the stored one; both equal a fresh
// lowering of the trace, and List reports the program as current.
func TestAcquireProgramServesLoweredProgram(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	p := testParams(11)
	for _, wantHit := range []bool{false, true} {
		cols, prog, release, hit := acquireProgram(t, c, p)
		if hit != wantHit {
			t.Fatalf("hit = %v, want %v", hit, wantHit)
		}
		want, err := mpisim.Lower(cols)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(prog, want) {
			t.Fatalf("hit=%v: served program differs from a lowering of the served trace", hit)
		}
		release()
	}
	if st := c.Stats(); st.Relowered != 0 || st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats %+v", st)
	}
	es, err := c.List()
	if err != nil || len(es) != 1 {
		t.Fatalf("List: %v, %d entries", err, len(es))
	}
	if e := es[0]; e.ProgramErr != nil || e.ProgramVersion != mpisim.LoweringVersion || e.ProgramBytes <= programHeaderSize {
		t.Fatalf("listed program: version %d, %d bytes, err %v", e.ProgramVersion, e.ProgramBytes, e.ProgramErr)
	}
}

// TestCapDropsProgramsBeforeTraces: under a cap with room for three
// traces but only one and a half programs, the sweeps drop the older
// programs and evict no trace. A hit on a trace whose program was
// dropped re-lowers it (not a miss), and re-publishing it keeps the
// directory under the cap.
func TestCapDropsProgramsBeforeTraces(t *testing.T) {
	dir := t.TempDir()
	probe := mustOpen(t, dir, Options{})
	_, _, release, _ := acquireProgram(t, probe, testParams(20))
	release()
	es, err := probe.List()
	if err != nil || len(es) != 1 || es[0].ProgramBytes == 0 {
		t.Fatalf("probe listing: %v, %v", err, es)
	}
	prog := es[0].ProgramBytes
	limit := 3*(es[0].Bytes-prog) + prog + prog/2

	c := mustOpen(t, dir, Options{MaxBytes: limit, Warnf: t.Logf})
	check := func(when string) {
		t.Helper()
		es, err := c.List()
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		programs := 0
		for _, e := range es {
			total += e.Bytes
			if e.ProgramBytes > 0 {
				programs++
			}
		}
		if len(es) != 3 || programs != 1 || total > limit {
			t.Fatalf("%s: %d entries, %d programs, %d bytes under a %d-byte cap; want 3 entries, 1 program", when, len(es), programs, total, limit)
		}
	}
	for seed := int64(21); seed <= 22; seed++ {
		_, _, release, _ := acquireProgram(t, c, testParams(seed))
		release()
	}
	check("after publishing")
	_, _, release, hit := acquireProgram(t, c, testParams(20))
	release()
	check("after re-lowering")
	if st := c.Stats(); !hit || st.Evictions != 0 || st.Misses != 2 || st.Relowered != 1 {
		t.Fatalf("hit=%v, stats %+v; want a re-lowered hit and no eviction", hit, st)
	}
}

// TestListMarksStalePrograms: a program from another lowering version,
// or bound to other trace bytes, is listed stale; a missing one is
// listed absent.
func TestListMarksStalePrograms(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	p := testParams(12)
	_, _, release, _ := acquireProgram(t, c, p)
	release()
	path := c.ProgramPath(Hash(p))
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rewrite := func(off int, v uint32) {
		b := append([]byte{}, img...)
		binary.LittleEndian.PutUint32(b[off:], v)
		binary.LittleEndian.PutUint32(b[60:], crc32.Checksum(b[:60], castagnoli))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, edit := range map[string]func(){
		"older lowering": func() { rewrite(12, mpisim.LoweringVersion+1) },
		"other trace":    func() { rewrite(24, binary.LittleEndian.Uint32(img[24:])+1) },
	} {
		edit()
		es, err := c.List()
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(es[0].ProgramErr, errStaleProgram) {
			t.Errorf("%s: listed program err %v, want stale", name, es[0].ProgramErr)
		}
	}
	os.Remove(path)
	if es, _ := c.List(); !os.IsNotExist(es[0].ProgramErr) {
		t.Errorf("missing program listed with err %v", es[0].ProgramErr)
	}
}

// TestPreviousLayoutProgramIsRelowered: an entry holding a program
// stored by a lowering-version-1 build (48-byte ops with the peer in
// each op; testdata/lowering-v1.prog is that build's program file for
// testParams(13), bound to the same trace bytes) is a hit whose program
// is lowered again and re-published. Nothing is evicted and nothing
// counts as a miss.
func TestPreviousLayoutProgramIsRelowered(t *testing.T) {
	dir := t.TempDir()
	p := testParams(13)
	c := mustOpen(t, dir, Options{})
	_, _, release, _ := acquireProgram(t, c, p)
	release()
	path := c.ProgramPath(Hash(p))
	cur, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile("testdata/lowering-v1.prog")
	if err != nil {
		t.Fatal(err)
	}
	oh, err := parseProgramHeader(old)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := parseProgramHeader(cur)
	if err != nil {
		t.Fatal(err)
	}
	if oh.lowering != 1 || oh.traceSize != ch.traceSize || oh.traceCRC != ch.traceCRC {
		t.Fatalf("fixture is lowering version %d of a %d-byte trace with CRC %08x; want version 1 of this entry's %d-byte trace with CRC %08x",
			oh.lowering, oh.traceSize, oh.traceCRC, ch.traceSize, ch.traceCRC)
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	c = mustOpen(t, dir, Options{})
	cols, prog, release, hit := acquireProgram(t, c, p)
	defer release()
	if st := c.Stats(); !hit || st.Relowered != 1 || st.Corrupt != 0 || st.Misses != 0 {
		t.Fatalf("hit=%v, stats %+v; want a hit with one program re-lowered and nothing evicted", hit, st)
	}
	want, err := mpisim.Lower(cols)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(prog, want) {
		t.Fatal("served program differs from a lowering of the served trace")
	}
	es, err := c.List()
	if err != nil || len(es) != 1 {
		t.Fatalf("List: %v, %d entries", err, len(es))
	}
	if e := es[0]; e.ProgramErr != nil || e.ProgramVersion != mpisim.LoweringVersion {
		t.Fatalf("re-published program: version %d, err %v", e.ProgramVersion, e.ProgramErr)
	}
}
