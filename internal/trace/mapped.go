package trace

import (
	"fmt"
	"io"
	"os"
)

// Mapped is a trace opened by OpenMapped: a *Columns plus the file
// image it was parsed from. On a zero-copy-capable platform
// (little-endian, working mmap) the columns point straight into the
// private file mapping — opening allocates nothing proportional to the
// trace, and the resident cost is shared, evictable page cache.
// Elsewhere the columns are copied out of the image.
//
// Close releases the image; the Columns must not be used afterwards
// when ZeroCopy reports true.
type Mapped struct {
	*Columns

	data    []byte
	release func() error
	zero    bool // columns alias data (no decode happened)
}

// ZeroCopy reports whether the columns alias the file image directly
// (true on a little-endian host).
func (m *Mapped) ZeroCopy() bool { return m.zero }

// Image returns the raw file image backing the trace (the mmap region
// or the heap buffer it was parsed from). The bytes are read-only as
// far as the caller is concerned: writing to a MAP_PRIVATE region
// would silently diverge from the file. It exists so integrity layers
// (the trace cache) can checksum exactly the bytes that were opened,
// without a second read of the file.
func (m *Mapped) Image() []byte { return m.data }

// Close releases the file image. It is safe to call twice.
func (m *Mapped) Close() error {
	release := m.release
	m.data, m.release, m.zero = nil, nil, false
	if release != nil {
		return release()
	}
	return nil
}

// VersionV3 is the codec version number, exported so cache layers can
// record which codec an entry was written with and invalidate entries
// when the format advances.
const VersionV3 = binaryVersionV3

// OpenMapped opens the version-3 trace file at path. The file maps in
// privately where the platform allows (MapFile), and the columns alias
// the mapping on a little-endian host — zero decode, zero copy.
// Elsewhere the same validating parser copy-decodes the image, so
// acceptance is identical. A file of a retired codec version, or one
// that is not a trace at all, fails with an error wrapping
// ErrBadFormat that names what was found.
//
// The returned Mapped's Columns implements Source like any other trace;
// SetEventTimes on a zero-copy trace writes copy-on-write pages that
// never reach the file. Callers must Close it when done.
func OpenMapped(path string) (*Mapped, error) {
	data, release, err := MapFile(path)
	if err != nil {
		return nil, err
	}
	alias := v3Aliasable(data)
	c, err := parseV3(data, alias)
	if err != nil {
		release()
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return &Mapped{Columns: c, data: data, release: release, zero: alias}, nil
}

// MapFile maps the whole file at path privately and returns its image
// with the function that releases it. OpenMapped uses it for traces;
// the trace cache uses it for the replay programs it keeps next to
// them. It degrades to reading the file into memory where mmap is
// unavailable or fails; the image must be treated as read-only either
// way.
func MapFile(path string) ([]byte, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	if mmapSupported && st.Size() > 0 {
		if data, err := mmapFile(f, st.Size()); err == nil {
			return data, func() error { return munmapFile(data) }, nil
		}
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, nil, err
	}
	return data, func() error { return nil }, nil
}
