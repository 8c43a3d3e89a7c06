package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpctradeoff/internal/simtime"
)

func encodeV3(t *testing.T, c *Columns) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteColumnsV3(&buf, c); err != nil {
		t.Fatalf("WriteColumnsV3: %v", err)
	}
	return buf.Bytes()
}

func TestV3RoundTrip(t *testing.T) {
	cols := richColumns(t)
	v3 := encodeV3(t, cols)

	if got := V3Size(cols); got != int64(len(v3)) {
		t.Fatalf("V3Size = %d, encoded %d bytes", got, len(v3))
	}

	back, err := parseV3(v3, false)
	if err != nil {
		t.Fatalf("parseV3: %v", err)
	}
	requireSameEvents(t, cols, back)
	if !commTablesEqual(&cols.Comms, &back.Comms) {
		t.Fatal("comm tables differ after v3 round trip")
	}
	if back.Meta != cols.Meta {
		t.Fatalf("meta = %+v, want %+v", back.Meta, cols.Meta)
	}
}

// TestV3RoundTripProperty round-trips random traces through v3 files
// opened with OpenMapped (the campaign's read path).
func TestV3RoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		tr := randomTrace(rng)
		m, err := OpenMapped(writeV3File(t, tr))
		if err != nil {
			t.Fatalf("iter %d: OpenMapped: %v", i, err)
		}
		requireSameEvents(t, tr, m)
		if !commTablesEqual(&tr.Comms, &m.Comms) || tr.Meta != m.Meta {
			t.Fatalf("iter %d: header differs", i)
		}
		m.Close()
	}
}

// TestV3AliasCopyAgree checks that the zero-copy and portable decode
// paths produce identical columns and accept/reject identical inputs.
func TestV3AliasCopyAgree(t *testing.T) {
	cols := richColumns(t)
	v3 := encodeV3(t, cols)
	want := cols

	aligned := make([]byte, len(v3))
	copy(aligned, v3)
	if v3LittleEndian && v3Aliasable(aligned) {
		ac, err := parseV3(aligned, true)
		if err != nil {
			t.Fatalf("parseV3(alias): %v", err)
		}
		requireSameEvents(t, want, ac)
	}
	cc, err := parseV3(v3, false)
	if err != nil {
		t.Fatalf("parseV3(copy): %v", err)
	}
	requireSameEvents(t, want, cc)

	// Both modes must reject the same corruptions.
	for name, corrupt := range v3Corruptions(t, cols) {
		buf := make([]byte, len(corrupt))
		copy(buf, corrupt)
		_, errAlias := parseV3(buf, v3Aliasable(buf))
		_, errCopy := parseV3(corrupt, false)
		if (errAlias == nil) != (errCopy == nil) {
			t.Errorf("%s: alias err=%v, copy err=%v — modes disagree", name, errAlias, errCopy)
		}
		if errCopy == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
}

// v3Corruptions builds a family of invalid v3 images from a valid one:
// truncated headers, misaligned extents, extents pointing past EOF, and
// header/stream size mismatches. Every one must be rejected.
func v3Corruptions(t *testing.T, cols *Columns) map[string][]byte {
	t.Helper()
	good := encodeV3(t, cols)
	metaLen := binary.LittleEndian.Uint64(good[24:32])
	extOff := binary.LittleEndian.Uint64(good[32:40])

	patch := func(mut func(b []byte)) []byte {
		b := make([]byte, len(good))
		copy(b, good)
		mut(b)
		return b
	}
	out := map[string][]byte{
		"truncated-header-8":  append([]byte(nil), good[:8]...),
		"truncated-header-47": append([]byte(nil), good[:47]...),
		"truncated-body":      append([]byte(nil), good[:len(good)-9]...),
		"trailing-garbage":    append(append([]byte(nil), good...), 0xEE),
		"file-size-lie": patch(func(b []byte) {
			binary.LittleEndian.PutUint64(b[40:48], uint64(len(b))+64)
		}),
		"bad-header-size": patch(func(b []byte) {
			binary.LittleEndian.PutUint32(b[8:12], 128)
		}),
		"meta-out-of-bounds": patch(func(b []byte) {
			binary.LittleEndian.PutUint64(b[24:32], uint64(len(b))*2)
		}),
		"extent-table-moved": patch(func(b []byte) {
			binary.LittleEndian.PutUint64(b[32:40], extOff+8)
		}),
		"rank-count-overflow": patch(func(b []byte) {
			binary.LittleEndian.PutUint32(b[12:16], 1<<30)
		}),
		// Knock the first rank's op column offset off 8-byte alignment.
		"misaligned-extent": patch(func(b []byte) {
			off := binary.LittleEndian.Uint64(b[extOff+24:])
			binary.LittleEndian.PutUint64(b[extOff+24:], off+1)
		}),
		// Point the entry column past EOF.
		"extent-past-eof": patch(func(b []byte) {
			binary.LittleEndian.PutUint64(b[extOff+24+8:], uint64(len(b)))
		}),
		// Event count × elem size wraps around uint64.
		"extent-count-overflow": patch(func(b []byte) {
			binary.LittleEndian.PutUint64(b[extOff:], 1<<61)
		}),
		// Waitall window reaching outside the request arena: grow the
		// first rank's auxLen bytes to huge values.
		"aux-window-overflow": patch(func(b []byte) {
			auxLenOff := binary.LittleEndian.Uint64(b[extOff+24+8*10:])
			n := binary.LittleEndian.Uint64(b[extOff:])
			for i := uint64(0); i < n; i++ {
				binary.LittleEndian.PutUint32(b[auxLenOff+4*i:], 1<<30)
			}
		}),
	}
	_ = metaLen
	return out
}

func TestV3Rejections(t *testing.T) {
	cols := richColumns(t)
	dir := t.TempDir()
	for name, bad := range v3Corruptions(t, cols) {
		if _, err := parseV3(bad, false); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: parseV3 err = %v, want ErrBadFormat", name, err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if m, err := OpenMapped(path); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: OpenMapped err = %v, want ErrBadFormat", name, err)
			if m != nil {
				m.Close()
			}
		}
	}
}

// TestCodecReadFailpoint damages one rank's body on disk — a flipped
// high bit in the last rank's event count — and requires both the
// mapped and the copy-mode open to fail loudly at that rank, never to
// return a short trace; the undamaged file still opens.
func TestCodecReadFailpoint(t *testing.T) {
	cols := randomTrace(rand.New(rand.NewSource(1)))
	path := writeV3File(t, cols)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := cols.Meta.NumRanks - 1
	bad := append([]byte(nil), good...)
	bad[binary.LittleEndian.Uint64(bad[32:40])+uint64(last)*v3ExtentSize+7] ^= 0x80
	badPath := filepath.Join(t.TempDir(), "damaged.v3")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("rank %d:", last)
	if _, err := OpenMapped(badPath); !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), want) {
		t.Errorf("OpenMapped err = %v, want ErrBadFormat at %q", err, want)
	}
	if _, err := parseV3(bad, false); !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), want) {
		t.Errorf("copy-mode parseV3 err = %v, want ErrBadFormat at %q", err, want)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("undamaged OpenMapped failed: %v", err)
	}
	m.Close()
}

func writeV3File(t *testing.T, cols *Columns) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.v3")
	f, err := os.Create(path)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := WriteColumnsV3(f, cols); err != nil {
		t.Fatalf("WriteColumnsV3: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return path
}

func TestOpenMappedV3(t *testing.T) {
	cols := richColumns(t)
	path := writeV3File(t, cols)

	m, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	defer m.Close()

	if int64(len(m.Image())) != V3Size(cols) {
		t.Fatalf("image holds %d bytes, want %d", len(m.Image()), V3Size(cols))
	}
	if mmapSupported && v3LittleEndian && !m.ZeroCopy() {
		t.Fatal("ZeroCopy() = false on a platform that supports it")
	}
	requireSameEvents(t, cols, m.Columns)
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate on mapped trace: %v", err)
	}
}

// TestOpenMappedSetEventTimes verifies the MAP_PRIVATE contract: writes
// through SetEventTimes are visible in the mapping but never reach the
// file, so a later open sees the original times.
func TestOpenMappedSetEventTimes(t *testing.T) {
	cols := richColumns(t)
	path := writeV3File(t, cols)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}

	m, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	m.SetEventTimes(0, 0, simtime.Time(12345), simtime.Time(67890))
	var e Event
	m.EventAt(0, 0, &e)
	if e.Entry != 12345 || e.Exit != 67890 {
		t.Fatalf("SetEventTimes not visible: entry=%v exit=%v", e.Entry, e.Exit)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("re-read: %v", err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("SetEventTimes on a mapped trace modified the file")
	}

	m2, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("re-open: %v", err)
	}
	defer m2.Close()
	m2.EventAt(0, 0, &e)
	want := rankEvents(cols, 0)[0]
	if e.Entry != want.Entry || e.Exit != want.Exit {
		t.Fatalf("file times changed: entry=%v exit=%v, want %v/%v", e.Entry, e.Exit, want.Entry, want.Exit)
	}
}

// TestFileVersion checks that OpenMapped reads the codec version from
// the header: a v3 file records VersionV3 and opens, a file claiming
// another version is refused with an error naming it, and a file that
// is not a trace is refused as such.
func TestFileVersion(t *testing.T) {
	cols := richColumns(t)
	path := writeV3File(t, cols)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := good[len(binaryMagic)]; v != VersionV3 {
		t.Fatalf("header version = %d, want %d", v, VersionV3)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("OpenMapped(v3): %v", err)
	}
	m.Close()

	dir := t.TempDir()
	future := append([]byte(nil), good...)
	future[len(binaryMagic)] = VersionV3 + 1
	bad := filepath.Join(dir, "bad")
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"future", fmt.Sprintf("codec v%d", VersionV3+1), future},
		{"garbage", "not an " + binaryMagic + " trace", []byte("nope")},
	} {
		if err := os.WriteFile(bad, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := OpenMapped(bad)
		if err == nil {
			m.Close()
			t.Fatalf("%s: OpenMapped accepted it", tc.name)
		}
		if !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: err = %v, want ErrBadFormat", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestOpenMappedFallback writes a v1 and a v2 file (retiredSeeds) and
// checks that OpenMapped has no decode fallback for them: it refuses
// each with ErrBadFormat, naming the version found and how to get a
// readable file.
func TestOpenMappedFallback(t *testing.T) {
	dir := t.TempDir()
	for _, b := range retiredSeeds() {
		version := b[len(binaryMagic)]
		path := filepath.Join(dir, fmt.Sprintf("old.v%d.htrc", version))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := OpenMapped(path)
		if err == nil {
			m.Close()
			t.Fatalf("v%d: OpenMapped accepted a retired codec", version)
		}
		if !errors.Is(err, ErrBadFormat) {
			t.Errorf("v%d: err = %v, want ErrBadFormat", version, err)
		}
		for _, want := range []string{fmt.Sprintf("codec v%d", version), "tracegen", "dumpiconv"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("v%d: err %q does not mention %q", version, err, want)
			}
		}
	}
}

func TestMappedCloseTwice(t *testing.T) {
	cols := richColumns(t)
	path := writeV3File(t, cols)
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// BenchmarkOpenV3 measures the cost of opening (not iterating) a v3
// file — the headline number for the zero-copy format.
func BenchmarkOpenV3(b *testing.B) {
	cols := benchColumns(b)
	path := filepath.Join(b.TempDir(), "bench.v3")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := WriteColumnsV3(f, cols); err != nil {
		b.Fatal(err)
	}
	f.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := OpenMapped(path)
		if err != nil {
			b.Fatal(err)
		}
		m.Close()
	}
}

func benchColumns(b *testing.B) *Columns {
	b.Helper()
	bld := NewBuilder(Meta{App: "bench", Class: "B", Machine: "m", NumRanks: 8, RanksPerNode: 4})
	for i := 0; i < 200; i++ {
		richProgramN(bld, 8)
	}
	c, err := bld.BuildColumns()
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// richProgramN is a rank-count-parameterized slice of richProgram's op
// mix, suitable for looping to build large benchmark traces.
func richProgramN(b *Builder, ranks int) {
	for r := 0; r < ranks; r++ {
		b.Compute(r, simtime.Time(10+r))
	}
	q0 := b.Isend(0, 1, 0, 1024, CommWorld)
	q1 := b.Irecv(1, 0, 0, 1024, CommWorld)
	b.Wait(0, q0)
	b.Wait(1, q1)
	for r := 0; r < ranks; r++ {
		b.Collective(r, OpAllreduce, CommWorld, 0, 64)
	}
}
