package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Mapped is a trace opened by OpenMapped: a *Columns plus the backing
// it aliases. For a version-3 file on a zero-copy-capable platform
// (little-endian, working mmap) the columns point straight into the
// private file mapping — opening allocates nothing proportional to the
// trace, and the resident cost is shared, evictable page cache. On any
// other platform or file version, Columns is an ordinary heap decode
// and Mapped merely remembers that the fast path was unavailable.
//
// Close releases the mapping; the Columns must not be used afterwards
// when ZeroCopy reports true.
type Mapped struct {
	*Columns
	// Version is the codec version of the file that was opened (1, 2,
	// or 3).
	Version int

	data   []byte
	mapped bool // data is an mmap region (vs a heap buffer or nil)
	zero   bool // columns alias data (no decode happened)
}

// ZeroCopy reports whether the columns alias the file mapping directly
// (true only for v3 files on a little-endian host with mmap).
func (m *Mapped) ZeroCopy() bool { return m.zero }

// Image returns the raw file image backing the trace (the mmap region
// or the heap buffer it was decoded from), or nil when the trace came
// through the v1/v2 streaming fallback and no image is retained. The
// bytes are read-only as far as the caller is concerned: writing to a
// MAP_PRIVATE region would silently diverge from the file. It exists so
// integrity layers (the trace cache) can checksum exactly the bytes
// that were opened, without a second read of the file.
func (m *Mapped) Image() []byte { return m.data }

// MappedBytes returns the size of the backing image the columns alias,
// or 0 when the trace was decoded onto the heap.
func (m *Mapped) MappedBytes() int64 {
	if !m.zero {
		return 0
	}
	return int64(len(m.data))
}

// Close unmaps the file image. It is safe to call on a fallback-decoded
// Mapped (a no-op beyond dropping the buffer) and safe to call twice.
func (m *Mapped) Close() error {
	data, mapped := m.data, m.mapped
	m.data, m.mapped, m.zero = nil, false, false
	if mapped {
		return munmapFile(data)
	}
	return nil
}

// VersionV3 is the zero-copy codec version number, exported so cache
// layers can record which codec an entry was written with and
// invalidate entries when the format advances.
const VersionV3 = binaryVersionV3

// SniffVersion reads just enough of a binary trace stream to report its
// codec version, without decoding anything else.
func SniffVersion(r io.Reader) (int, error) {
	var hdr [len(binaryMagic) + binary.MaxVarintLen64]byte
	n, err := io.ReadAtLeast(r, hdr[:], len(binaryMagic)+1)
	if err != nil {
		return 0, fmt.Errorf("%w: missing magic: %v", ErrBadFormat, err)
	}
	if string(hdr[:len(binaryMagic)]) != binaryMagic {
		return 0, fmt.Errorf("%w: magic %q", ErrBadFormat, hdr[:len(binaryMagic)])
	}
	v, w := binary.Uvarint(hdr[len(binaryMagic):n])
	if w <= 0 {
		return 0, fmt.Errorf("%w: truncated version", ErrBadFormat)
	}
	return int(v), nil
}

// FileVersion reports the codec version of the trace file at path.
func FileVersion(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return SniffVersion(f)
}

// OpenMapped opens the trace file at path for reading with the cheapest
// access path the file and platform allow:
//
//   - a version-3 file on a little-endian host with mmap maps in
//     privately and the columns alias the mapping — zero decode, zero
//     copy, resident cost shared with the page cache;
//   - a version-3 file elsewhere (big-endian host, no mmap, unaligned
//     buffer) is read and copy-decoded through the same validating
//     parser, so acceptance is identical;
//   - a version-1 or version-2 file falls back to ReadColumns.
//
// The returned Mapped's Columns implements Source like any other trace;
// SetEventTimes on a zero-copy trace writes copy-on-write pages that
// never reach the file. Callers must Close it when done.
func OpenMapped(path string) (*Mapped, error) {
	version, err := FileVersion(path)
	if err != nil {
		return nil, err
	}
	if version != binaryVersionV3 {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		c, err := ReadColumns(f)
		if err != nil {
			return nil, err
		}
		return &Mapped{Columns: c, Version: version}, nil
	}

	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < v3HeaderSize {
		return nil, fmt.Errorf("%w: v3 file %s truncated at %d bytes", ErrBadFormat, path, size)
	}

	if mmapSupported && v3LittleEndian {
		data, err := mmapFile(f, size)
		if err == nil {
			c, perr := parseV3(data, v3Aliasable(data))
			if perr != nil {
				munmapFile(data)
				return nil, fmt.Errorf("trace: %s: %w", path, perr)
			}
			return &Mapped{Columns: c, Version: version, data: data, mapped: true, zero: true}, nil
		}
		// fall through: an mmap failure (exotic filesystem, resource
		// limits) degrades to the read path, never to an error.
	}

	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	alias := v3Aliasable(data)
	c, perr := parseV3(data, alias)
	if perr != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, perr)
	}
	return &Mapped{Columns: c, Version: version, data: data, zero: alias}, nil
}

// MapFile maps the whole file at path privately and returns its image
// with the function that releases it, for callers that keep other
// zero-copy formats next to traces (the trace cache's replay programs).
// Like OpenMapped it degrades to reading the file into memory where
// mmap is unavailable or fails; the image must be treated as
// read-only either way.
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
