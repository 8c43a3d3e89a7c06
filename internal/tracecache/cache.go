// Package tracecache is a content-addressed on-disk cache of
// ground-truth-stamped columnar traces. Acquiring a trace is the
// dominant per-trace cost of a campaign — the generator builds the
// program and the detailed packet-flow simulator stamps measured
// timestamps into it — and the result is fully deterministic in
// (workload.Params, generator schema, codec version). The cache keys
// exactly that: a stable hash of the parameters plus both schema
// versions names a codec-v3 file and a checksummed sidecar index, so
// every acquisition after the first is an OpenMapped call — zero
// decode, page-cache-resident, MAP_PRIVATE so replay-time writes stay
// process-local — instead of a full generate + stamp.
//
// Trust and failure posture:
//
//   - Nothing on disk is believed unverified. The sidecar must pass its
//     own self-checksum and name the schema versions this build
//     expects; the trace file must match the sidecar's exact size and
//     CRC-32C before its contents are used. Any mismatch — bit flip,
//     truncation, torn write, unknown format — evicts the entry with a
//     warning and regenerates. A cache can therefore never make a
//     campaign wrong, only slow.
//   - Publication is crash-safe: temp file + fsync + rename for both
//     the trace and its sidecar (sidecar last, so a visible sidecar
//     implies a fully-published trace), then a directory fsync. A crash
//     mid-publish leaves either no entry or a temp file the next
//     eviction sweep collects.
//   - Concurrent acquisitions of one key are singleflighted in-process
//     (one goroutine materializes, the rest wait and open the published
//     entry). Across processes (say `tracegen -warm` filling the
//     directory while a campaign reads it), publication is idempotent —
//     the content is deterministic and the rename atomic, so the worst
//     case is duplicated encoding work.
//   - Every entry may also carry its trace's lowered replay program
//     (program.go), so that AcquireProgram hits replay without
//     lowering. The program is derived from the trace and is repaired
//     from it, never the other way round.
//   - A size cap (Options.MaxBytes) is enforced after each publish by
//     dropping least-recently-used program files, then evicting
//     least-recently-used entries (sidecar mtime, touched on every hit).
//     Evicting an entry another process has mapped is safe: the mapping
//     outlives the unlink.
package tracecache

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpctradeoff/internal/faultinject"
	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/trace"
	"hpctradeoff/internal/workload"
)

// ErrCorrupt marks a cache entry that failed verification (sidecar or
// trace damage, unknown versions, size/checksum mismatch). It is
// internal to the cache's control flow — Acquire never returns it; the
// entry is evicted and regenerated — but eviction warnings wrap it and
// tests match it with errors.Is.
var ErrCorrupt = errors.New("tracecache: corrupt entry")

// failOpen is the cache's failpoint, hit once per existing entry
// opened (label = the workload's app name). A firing is treated
// exactly like on-disk corruption: the entry is evicted with a warning
// and the trace regenerated — never trusted, never fatal.
var failOpen = faultinject.NewSite("tracecache/open")

const (
	traceSuffix   = ".htrc3"
	sidecarSuffix = ".idx"
	tmpPrefix     = ".tmp-"
)

// Key returns the human-readable identity string of p's cache entry:
// every Params field plus the codec and workload schema versions. Two
// builds disagreeing on any schema version derive different keys, so a
// format or generator bump invalidates the whole cache by construction
// (stale entries age out via the LRU cap) rather than by a migration.
func Key(p workload.Params) string {
	// %g round-trips float64 exactly, so two Params with different
	// noise amplitudes can never share a key. The noise fields are
	// folded unconditionally (zero values included): conditional
	// folding is exactly the kind of shortcut TestKeyFoldsEveryParam
	// exists to catch.
	return fmt.Sprintf("codec%d.gen%d|%s.%s.x%d.%s.n%d.s%d.i%d|lj%g.nh%g.os%g.ns%d",
		trace.VersionV3, workload.SchemaVersion,
		p.App, p.Class, p.Ranks, p.Machine, p.RanksPerNode, p.Seed, p.Iters,
		p.Noise.LinkJitter, p.Noise.NodeHetero, p.Noise.OSNoise, p.Noise.Seed)
}

// Hash returns the content-address of p's entry: the first 32 hex
// digits of SHA-256 over Key(p). It is the entry's file basename.
func Hash(p workload.Params) string {
	sum := sha256.Sum256([]byte(Key(p)))
	return fmt.Sprintf("%x", sum[:16])
}

// Options configures Open.
type Options struct {
	// MaxBytes caps the cache directory's total size (trace files,
	// sidecars and program files); 0 means unbounded. The cap is
	// enforced after each publish, so it is a high-water mark, not a
	// hard ceiling — one entry larger than the cap still publishes (and
	// is evicted by the next one). Under pressure, program files go
	// first, least recently used first, and only then whole entries, so
	// a capped cache keeps as many traces as it would without programs,
	// less the room of the program just published.
	MaxBytes int64
	// Warnf receives operator warnings: corrupt entries evicted,
	// publish failures (the cache degrades to pass-through), LRU
	// evictions. Nil discards them.
	Warnf func(format string, args ...any)
}

// Stats counts what the cache did. All counters are cumulative since
// Open.
type Stats struct {
	// Hits is the number of acquisitions served by OpenMapped; Misses
	// the number that materialized (generate + stamp). Misses equals
	// the number of times the materialize callback ran, which is what
	// the warm-path tests assert on.
	Hits, Misses int64
	// Corrupt counts entries evicted because verification failed
	// (including tracecache/open failpoint firings); Evictions counts
	// LRU evictions under the size cap.
	Corrupt, Evictions int64
	// Relowered counts hits whose stored program was missing, damaged
	// or stale, so the program was lowered again from the trace and
	// re-published. A re-lowering is not a miss.
	Relowered int64
	// BytesWritten is the total published trace, sidecar and program
	// bytes; BytesMapped the total trace bytes served via hits.
	BytesWritten, BytesMapped int64
}

// Sub returns the counter deltas s − o; campaign reports use it to
// attribute activity to one campaign on a long-lived cache.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Hits: s.Hits - o.Hits, Misses: s.Misses - o.Misses,
		Corrupt: s.Corrupt - o.Corrupt, Evictions: s.Evictions - o.Evictions,
		Relowered:    s.Relowered - o.Relowered,
		BytesWritten: s.BytesWritten - o.BytesWritten, BytesMapped: s.BytesMapped - o.BytesMapped,
	}
}

// String renders the stats for campaign summaries.
func (s Stats) String() string {
	out := fmt.Sprintf("%d hits, %d misses", s.Hits, s.Misses)
	if s.Corrupt > 0 {
		out += fmt.Sprintf(", %d corrupt evicted", s.Corrupt)
	}
	if s.Evictions > 0 {
		out += fmt.Sprintf(", %d LRU evicted", s.Evictions)
	}
	if s.Relowered > 0 {
		out += fmt.Sprintf(", %d programs re-lowered", s.Relowered)
	}
	if s.BytesWritten > 0 {
		out += fmt.Sprintf(", %.1f MB written", float64(s.BytesWritten)/1e6)
	}
	if s.BytesMapped > 0 {
		out += fmt.Sprintf(", %.1f MB mapped", float64(s.BytesMapped)/1e6)
	}
	return out
}

// Cache is one cache directory handle. It is safe for concurrent use
// by any number of goroutines; multiple processes may share one
// directory (each with its own Cache).
type Cache struct {
	dir      string
	maxBytes int64
	warnf    func(string, ...any)

	mu       sync.Mutex
	inflight map[string]chan struct{}
	evictMu  sync.Mutex

	hits, misses, corrupt, evictions, relowered atomic.Int64
	bytesWritten, bytesMapped                   atomic.Int64
}

// Open returns a Cache over dir, creating the directory if needed.
func Open(dir string, opts Options) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("tracecache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tracecache: %w", err)
	}
	warnf := opts.Warnf
	if warnf == nil {
		warnf = func(string, ...any) {}
	}
	return &Cache{
		dir:      dir,
		maxBytes: opts.MaxBytes,
		warnf:    warnf,
		inflight: make(map[string]chan struct{}),
	}, nil
}

// Dir returns the cache directory path.
func (c *Cache) Dir() string { return c.dir }

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits: c.hits.Load(), Misses: c.misses.Load(),
		Corrupt: c.corrupt.Load(), Evictions: c.evictions.Load(),
		Relowered:    c.relowered.Load(),
		BytesWritten: c.bytesWritten.Load(), BytesMapped: c.bytesMapped.Load(),
	}
}

// Acquire returns the ground-truth-stamped columnar trace for p: from
// the cache when a verified entry exists, otherwise by running
// materialize (the caller's generate+stamp path) and publishing its
// result. The returned release function must be called when the caller
// is done replaying the columns — it unmaps a cache hit; it is never
// nil. The bool reports whether the acquisition was a cache hit.
//
// A cache problem is never an acquisition failure: corrupt entries are
// evicted and regenerated, and a failed publish degrades to returning
// the materialized columns uncached, both with a warning. The only
// errors Acquire returns are materialize's own.
func (c *Cache) Acquire(p workload.Params, materialize func() (*trace.Columns, error)) (*trace.Columns, func(), bool, error) {
	cols, _, release, hit, err := c.acquire(p, func() (*trace.Columns, *mpisim.Program, error) {
		cols, err := materialize()
		return cols, nil, err
	}, false)
	return cols, release, hit, err
}

// AcquireProgram is Acquire for a caller that replays the trace: it
// also returns the trace's lowered replay program, valid until release.
// On a miss, materialize returns both (workload.MaterializeReplay) and
// the program is published next to the trace. On a hit the program is
// mapped from the entry; when that file is missing, damaged or stale it
// is lowered again from the verified trace and re-published, which
// counts in Stats.Relowered and never as a miss.
func (c *Cache) AcquireProgram(p workload.Params, materialize func() (*trace.Columns, *mpisim.Program, error)) (*trace.Columns, *mpisim.Program, func(), bool, error) {
	return c.acquire(p, materialize, true)
}

func (c *Cache) acquire(p workload.Params, materialize func() (*trace.Columns, *mpisim.Program, error), wantProg bool) (*trace.Columns, *mpisim.Program, func(), bool, error) {
	hash := Hash(p)
	unlock := c.lockKey(hash)
	defer unlock()

	if m, sc, err := c.openEntry(hash, p); err == nil && m != nil {
		c.hits.Add(1)
		c.bytesMapped.Add(sc.Size)
		if !wantProg {
			return m.Columns, nil, func() { m.Close() }, true, nil
		}
		prog, unmap, err := c.openProgram(hash, sc, m.Columns)
		if err != nil {
			unmap = func() {}
			if prog, err = c.relower(hash, sc, m.Columns, err); err != nil {
				m.Close()
				return nil, nil, nil, false, err
			}
		}
		return m.Columns, prog, func() { unmap(); m.Close() }, true, nil
	} else if err != nil {
		// Verification failed: evict so the next acquisition does not
		// re-verify known damage, warn, fall through to regeneration.
		c.evictCorrupt(hash, p, err)
	}

	cols, prog, err := materialize()
	if err != nil {
		return nil, nil, nil, false, err
	}
	c.misses.Add(1)
	if err := c.publish(hash, p, cols, prog); err != nil {
		c.warnf("tracecache: publishing %s (%s): %v; continuing uncached", Key(p), hash, err)
	} else {
		c.enforceCap(hash)
	}
	if wantProg && prog == nil {
		if prog, err = mpisim.Lower(cols); err != nil {
			return nil, nil, nil, false, err
		}
	}
	return cols, prog, func() {}, false, nil
}

// lockKey is the per-key singleflight gate: the returned unlock must be
// called when the key's acquisition completes. Waiters block until the
// leader finishes, then proceed to open the entry it published.
func (c *Cache) lockKey(hash string) func() {
	c.mu.Lock()
	for {
		ch, busy := c.inflight[hash]
		if !busy {
			break
		}
		c.mu.Unlock()
		<-ch
		c.mu.Lock()
	}
	ch := make(chan struct{})
	c.inflight[hash] = ch
	c.mu.Unlock()
	return func() {
		c.mu.Lock()
		delete(c.inflight, hash)
		c.mu.Unlock()
		close(ch)
	}
}

// openEntry opens and fully verifies one entry. Returns (nil, nil, nil)
// for a plain miss (no entry, or an entry from another schema version),
// a non-nil error for damage that must evict, and the mapped trace with
// its sidecar on success.
func (c *Cache) openEntry(hash string, p workload.Params) (*trace.Mapped, *sidecar, error) {
	scPath := filepath.Join(c.dir, hash+sidecarSuffix)
	scData, err := os.ReadFile(scPath)
	if os.IsNotExist(err) {
		return nil, nil, nil // cold: no sidecar means no entry
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%w: sidecar unreadable: %v", ErrCorrupt, err)
	}
	if err := failOpen.FailLabel(p.App); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	sc, err := parseSidecar(scData)
	if err != nil {
		return nil, nil, err
	}
	if sc.Codec != trace.VersionV3 || sc.WorkloadSchema != workload.SchemaVersion {
		// A different build's entry under a colliding pre-bump hash:
		// possible only if the key derivation ever drops the versions.
		// Treat as damage — the sidecar contradicts its own address.
		return nil, nil, fmt.Errorf("%w: entry is codec v%d / schema %d, this build wants v%d / %d",
			ErrCorrupt, sc.Codec, sc.WorkloadSchema, trace.VersionV3, workload.SchemaVersion)
	}
	if want := Key(p); sc.Key != want {
		return nil, nil, fmt.Errorf("%w: sidecar names key %q, address derives from %q", ErrCorrupt, sc.Key, want)
	}

	m, err := trace.OpenMapped(filepath.Join(c.dir, hash+traceSuffix))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	img := m.Image()
	if int64(len(img)) != sc.Size {
		m.Close()
		return nil, nil, fmt.Errorf("%w: trace file is %d bytes, sidecar says %d", ErrCorrupt, len(img), sc.Size)
	}
	if got := fmt.Sprintf("%08x", crc32.Checksum(img, castagnoli)); got != sc.CRC32C {
		m.Close()
		return nil, nil, fmt.Errorf("%w: trace checksum %s, sidecar says %s", ErrCorrupt, got, sc.CRC32C)
	}
	// Touch the sidecar so LRU eviction sees the hit. Best-effort: a
	// read-only cache directory still serves hits.
	now := time.Now()
	_ = os.Chtimes(scPath, now, now)
	return m, sc, nil
}

// evictCorrupt removes a failed entry and records the eviction.
func (c *Cache) evictCorrupt(hash string, p workload.Params, cause error) {
	c.corrupt.Add(1)
	c.warnf("tracecache: evicting %s (%s): %v; regenerating", Key(p), hash, cause)
	c.remove(hash)
}

// remove deletes an entry's files, sidecar first so that no visible
// sidecar ever describes a missing trace.
func (c *Cache) remove(hash string) {
	for _, suffix := range []string{sidecarSuffix, traceSuffix, programSuffix} {
		os.Remove(filepath.Join(c.dir, hash+suffix))
	}
}

// countingWriter tracks bytes and CRC-32C of everything written through
// it, so publish checksums the file in the same pass that writes it.
type countingWriter struct {
	f   *os.File
	n   int64
	crc uint32
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.f.Write(b)
	w.n += int64(n)
	w.crc = crc32.Update(w.crc, castagnoli, b[:n])
	return n, err
}

// publish atomically installs cols as hash's entry: trace file first,
// sidecar second (each temp + fsync + rename), then the program when
// there is one (temp + rename only), then a directory fsync. Because
// the sidecar is renamed last of the durable files, any visible sidecar
// describes a fully-durable trace file. A program that fails to publish
// costs the next hit a lowering, not the entry.
func (c *Cache) publish(hash string, p workload.Params, cols *trace.Columns, prog *mpisim.Program) error {
	tracePath := filepath.Join(c.dir, hash+traceSuffix)
	tf, err := os.CreateTemp(c.dir, tmpPrefix+hash+"-*"+traceSuffix)
	if err != nil {
		return err
	}
	defer os.Remove(tf.Name())
	cw := &countingWriter{f: tf}
	if err := trace.WriteColumnsV3(cw, cols); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}
	if err := os.Rename(tf.Name(), tracePath); err != nil {
		return err
	}

	sc := &sidecar{
		Version: sidecarVersion, Key: Key(p),
		Codec: trace.VersionV3, WorkloadSchema: workload.SchemaVersion,
		Size: cw.n, CRC32C: fmt.Sprintf("%08x", cw.crc),
	}
	scBytes, err := encodeSidecar(sc)
	if err != nil {
		return err
	}
	sf, err := os.CreateTemp(c.dir, tmpPrefix+hash+"-*"+sidecarSuffix)
	if err != nil {
		return err
	}
	defer os.Remove(sf.Name())
	if _, err := sf.Write(scBytes); err != nil {
		sf.Close()
		return err
	}
	if err := sf.Sync(); err != nil {
		sf.Close()
		return err
	}
	if err := sf.Close(); err != nil {
		return err
	}
	if err := os.Rename(sf.Name(), filepath.Join(c.dir, hash+sidecarSuffix)); err != nil {
		return err
	}
	written := cw.n + int64(len(scBytes))
	if prog != nil {
		if n, err := c.publishProgram(hash, sc, prog); err != nil {
			c.warnf("tracecache: publishing the program of %s (%s): %v", sc.Key, hash, err)
		} else {
			written += n
		}
	}
	if err := syncDir(c.dir); err != nil {
		return err
	}
	c.bytesWritten.Add(written)
	return nil
}

// entryFile is one on-disk entry as the eviction sweep and List see it.
type entryFile struct {
	hash      string
	bytes     int64 // trace + sidecar + program
	progBytes int64 // the program file's share of bytes
	lastUse   time.Time
	sc        *sidecar
	scErr     error
}

// scan lists the cache directory's entries (by sidecar), including
// unreadable ones, plus any stale temp files from crashed publishes.
func (c *Cache) scan() (entries []entryFile, tmps []string, err error) {
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, nil, err
	}
	for _, de := range des {
		name := de.Name()
		if strings.HasPrefix(name, tmpPrefix) {
			tmps = append(tmps, filepath.Join(c.dir, name))
			continue
		}
		if !strings.HasSuffix(name, sidecarSuffix) {
			continue
		}
		hash := strings.TrimSuffix(name, sidecarSuffix)
		e := entryFile{hash: hash}
		if info, err := de.Info(); err == nil {
			e.lastUse = info.ModTime()
			e.bytes = info.Size()
		}
		if info, err := os.Stat(filepath.Join(c.dir, hash+traceSuffix)); err == nil {
			e.bytes += info.Size()
		}
		if info, err := os.Stat(filepath.Join(c.dir, hash+programSuffix)); err == nil {
			e.progBytes = info.Size()
			e.bytes += e.progBytes
		}
		data, rerr := os.ReadFile(filepath.Join(c.dir, name))
		if rerr != nil {
			e.scErr = rerr
		} else {
			e.sc, e.scErr = parseSidecar(data)
		}
		entries = append(entries, e)
	}
	return entries, tmps, nil
}

// enforceCap applies the LRU size cap, and opportunistically collects
// temp files abandoned by crashed publishes. One sweep runs at a time.
// keep names the entry just published, which the sweep never evicts:
// kernel file timestamps tick at millisecond-ish granularity, so
// back-to-back publishes can share one mtime, and an unstable sort over
// the tie could otherwise pick the entry this very sweep is running on
// behalf of.
func (c *Cache) enforceCap(keep string) {
	if c.maxBytes <= 0 {
		return
	}
	c.evictMu.Lock()
	defer c.evictMu.Unlock()
	entries, tmps, err := c.scan()
	if err != nil {
		c.warnf("tracecache: eviction scan: %v", err)
		return
	}
	for _, t := range tmps {
		// A temp file still being written by a live publish was created
		// moments ago; only collect ones old enough to be orphans.
		if info, err := os.Stat(t); err == nil && time.Since(info.ModTime()) > time.Minute {
			os.Remove(t)
		}
	}
	var total int64
	for _, e := range entries {
		total += e.bytes
	}
	if total <= c.maxBytes {
		return
	}
	sort.Slice(entries, func(i, j int) bool {
		// Tie-break identical mtimes by hash so concurrent sweeps and
		// repeated runs agree on the victim order.
		if entries[i].lastUse.Equal(entries[j].lastUse) {
			return entries[i].hash < entries[j].hash
		}
		return entries[i].lastUse.Before(entries[j].lastUse)
	})
	// Program files go before any trace: an evicted trace costs a
	// generate and a stamp to get back, a dropped program one lowering.
	for i := range entries {
		if total <= c.maxBytes {
			return
		}
		e := &entries[i]
		if e.hash == keep || e.progBytes == 0 {
			continue
		}
		os.Remove(filepath.Join(c.dir, e.hash+programSuffix))
		total -= e.progBytes
		e.bytes -= e.progBytes
	}
	for _, e := range entries {
		if total <= c.maxBytes {
			break
		}
		if e.hash == keep {
			continue
		}
		c.remove(e.hash)
		total -= e.bytes
		c.evictions.Add(1)
		key := e.hash
		if e.sc != nil {
			key = e.sc.Key
		}
		c.warnf("tracecache: size cap: evicted %s (%.1f MB)", key, float64(e.bytes)/1e6)
	}
}

// Entry describes one cache entry for inspection tools.
type Entry struct {
	// Hash is the entry's content address (file basename); Key the
	// human-readable identity, when the sidecar was readable.
	Hash string
	Key  string
	// Codec and WorkloadSchema are the versions the entry was written
	// under; Bytes its on-disk size (trace + sidecar + program); LastUse
	// the LRU timestamp.
	Codec, WorkloadSchema int
	Bytes                 int64
	LastUse               time.Time
	// Err is non-nil when the sidecar failed to parse or verify; such
	// an entry would be evicted and regenerated on its next acquisition.
	Err error
	// ProgramVersion is the lowering version of the entry's program
	// file (0 when there is none or its header is unreadable) and
	// ProgramBytes its size. ProgramErr says why the next hit would
	// lower the program again instead of mapping it — no file, a
	// damaged header, or a stale one (lowered by another version, or
	// from other trace bytes) — as far as the header tells; nil if it
	// would map it. ProgramSize is what the image header counts (ops,
	// collective templates and their ops), zero unless the image is of
	// this build's format.
	ProgramVersion int
	ProgramBytes   int64
	ProgramErr     error
	ProgramSize    mpisim.ImageSize
}

// List returns every entry in the cache directory, sorted by key (then
// hash), including damaged ones.
func (c *Cache) List() ([]Entry, error) {
	entries, _, err := c.scan()
	if err != nil {
		return nil, err
	}
	out := make([]Entry, 0, len(entries))
	for _, e := range entries {
		ent := Entry{Hash: e.hash, Bytes: e.bytes, LastUse: e.lastUse, Err: e.scErr}
		if e.sc != nil {
			ent.Key, ent.Codec, ent.WorkloadSchema = e.sc.Key, e.sc.Codec, e.sc.WorkloadSchema
		}
		c.programInfo(e.hash, e.sc, &ent)
		out = append(out, ent)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Hash < out[j].Hash
	})
	return out, nil
}

// EntryPaths returns the on-disk trace and sidecar paths of the entry
// with the given hash (whether or not the files exist). It exists for
// inspection tools and for corruption tests that damage entries
// in place.
func (c *Cache) EntryPaths(hash string) (tracePath, sidecarPath string) {
	return filepath.Join(c.dir, hash+traceSuffix), filepath.Join(c.dir, hash+sidecarSuffix)
}

// ProgramPath returns the on-disk path of the entry's program file
// (whether or not it exists), for the same inspection and damage tools.
func (c *Cache) ProgramPath(hash string) string {
	return filepath.Join(c.dir, hash+programSuffix)
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
