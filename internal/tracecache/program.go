package tracecache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/trace"
)

// Every entry may carry its trace's replay program (mpisim.Program), so
// a hit replays without lowering. The program is a derived file: it is
// a pure function of the trace, the trace is verified on every open,
// and any doubt about the program is settled by lowering the trace
// again. So it gets the trace's distrust but none of its ceremony:
//
//   - it is self-checksummed and names the exact trace file (size and
//     CRC-32C) and lowering version it was made from; anything else — a
//     missing, torn, bit-flipped, or older file, one bound to another
//     trace, one whose image fails mpisim.OpenProgram's validation —
//     is re-lowered from the verified trace and re-published;
//   - that repair never evicts or regenerates the trace and never
//     counts as a miss;
//   - it is written with temp file + rename but no fsync of its own: a
//     crash can lose or tear it, and either is repaired on the next hit.
//     A miss publishes it before the directory fsync that makes the
//     trace durable.
//
// File layout: a 64-byte header, then the mpisim program image.
//
//	[ 0, 8)  magic "HPRGFILE"
//	[ 8,12)  u32 file format version (1)
//	[12,16)  u32 mpisim.LoweringVersion of the image
//	[16,24)  u64 size of the trace file the program was lowered from
//	[24,28)  u32 CRC-32C of that trace file
//	[28,32)  u32 CRC-32C of the image
//	[32,40)  u64 image size
//	[40,60)  reserved (zero)
//	[60,64)  u32 CRC-32C of bytes [0,60)

const (
	programSuffix     = ".prog"
	programMagic      = "HPRGFILE"
	programFormat     = 1
	programHeaderSize = 64
)

// errStaleProgram marks a program file that is intact but was not made
// by this build's lowering from this entry's trace.
var errStaleProgram = errors.New("tracecache: stale program")

// programHeader is a program file's decoded header.
type programHeader struct {
	lowering  uint32
	traceSize int64
	traceCRC  uint32
	imageCRC  uint32
	imageSize int64
}

func (h *programHeader) encode() []byte {
	b := make([]byte, programHeaderSize)
	le := binary.LittleEndian
	copy(b, programMagic)
	le.PutUint32(b[8:], programFormat)
	le.PutUint32(b[12:], h.lowering)
	le.PutUint64(b[16:], uint64(h.traceSize))
	le.PutUint32(b[24:], h.traceCRC)
	le.PutUint32(b[28:], h.imageCRC)
	le.PutUint64(b[32:], uint64(h.imageSize))
	le.PutUint32(b[60:], crc32.Checksum(b[:60], castagnoli))
	return b
}

// parseProgramHeader decodes and self-checks a header. Damage wraps
// ErrCorrupt.
func parseProgramHeader(b []byte) (*programHeader, error) {
	if len(b) < programHeaderSize {
		return nil, fmt.Errorf("%w: program file truncated at %d bytes", ErrCorrupt, len(b))
	}
	le := binary.LittleEndian
	if got, want := le.Uint32(b[60:]), crc32.Checksum(b[:60], castagnoli); got != want {
		return nil, fmt.Errorf("%w: program header checksum %08x, computed %08x", ErrCorrupt, got, want)
	}
	if string(b[:8]) != programMagic || le.Uint32(b[8:]) != programFormat {
		return nil, fmt.Errorf("%w: not a version-%d program file", ErrCorrupt, programFormat)
	}
	return &programHeader{
		lowering:  le.Uint32(b[12:]),
		traceSize: int64(le.Uint64(b[16:])),
		traceCRC:  le.Uint32(b[24:]),
		imageCRC:  le.Uint32(b[28:]),
		imageSize: int64(le.Uint64(b[32:])),
	}, nil
}

// check reports whether the header describes a program this build
// would serve for the trace the sidecar describes: errStaleProgram if
// not.
func (h *programHeader) check(sc *sidecar) error {
	if h.lowering != mpisim.LoweringVersion {
		return fmt.Errorf("%w: lowering version %d, this build lowers version %d", errStaleProgram, h.lowering, mpisim.LoweringVersion)
	}
	if h.traceSize != sc.Size || fmt.Sprintf("%08x", h.traceCRC) != sc.CRC32C {
		return fmt.Errorf("%w: lowered from a %d-byte trace with CRC %08x, the entry's is %d bytes with CRC %s",
			errStaleProgram, h.traceSize, h.traceCRC, sc.Size, sc.CRC32C)
	}
	return nil
}

// openProgram maps and verifies the program file of an entry whose
// trace (cols, described by sc) has just been verified. On success the
// returned release unmaps it.
func (c *Cache) openProgram(hash string, sc *sidecar, cols *trace.Columns) (*mpisim.Program, func(), error) {
	img, unmap, err := trace.MapFile(filepath.Join(c.dir, hash+programSuffix))
	if err != nil {
		return nil, nil, err
	}
	prog, err := func() (*mpisim.Program, error) {
		h, err := parseProgramHeader(img)
		if err != nil {
			return nil, err
		}
		if err := h.check(sc); err != nil {
			return nil, err
		}
		body := img[programHeaderSize:]
		if int64(len(body)) != h.imageSize {
			return nil, fmt.Errorf("%w: program image is %d bytes, header says %d", ErrCorrupt, len(body), h.imageSize)
		}
		if got := crc32.Checksum(body, castagnoli); got != h.imageCRC {
			return nil, fmt.Errorf("%w: program checksum %08x, header says %08x", ErrCorrupt, got, h.imageCRC)
		}
		prog, err := mpisim.OpenProgram(body)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if err := prog.Fits(cols); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return prog, nil
	}()
	if err != nil {
		unmap()
		return nil, nil, err
	}
	return prog, func() { unmap() }, nil
}

// publishProgram writes prog as hash's program file: temp file, then
// rename, without an fsync (see above). It returns the bytes written.
func (c *Cache) publishProgram(hash string, sc *sidecar, prog *mpisim.Program) (int64, error) {
	f, err := os.CreateTemp(c.dir, tmpPrefix+hash+"-*"+programSuffix)
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	traceCRC, err := parseCRC(sc.CRC32C)
	if err != nil {
		f.Close()
		return 0, err
	}
	h := &programHeader{lowering: mpisim.LoweringVersion, traceSize: sc.Size, traceCRC: traceCRC}
	if _, err := f.Write(h.encode()); err != nil {
		f.Close()
		return 0, err
	}
	cw := &countingWriter{f: f}
	if err := prog.WriteImage(cw); err != nil {
		f.Close()
		return 0, err
	}
	h.imageCRC, h.imageSize = cw.crc, cw.n
	if _, err := f.WriteAt(h.encode(), 0); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(f.Name(), filepath.Join(c.dir, hash+programSuffix)); err != nil {
		return 0, err
	}
	return programHeaderSize + cw.n, nil
}

// relower replaces a missing or unusable program on a hit: it lowers the
// verified trace and re-publishes the program, leaving the trace alone.
// A failed re-publish only costs the next hit another lowering.
func (c *Cache) relower(hash string, sc *sidecar, cols *trace.Columns, cause error) (*mpisim.Program, error) {
	if !os.IsNotExist(cause) {
		c.warnf("tracecache: program of %s (%s): %v; lowering again", sc.Key, hash, cause)
	}
	prog, err := mpisim.Lower(cols)
	if err != nil {
		return nil, err
	}
	c.relowered.Add(1)
	if n, err := c.publishProgram(hash, sc, prog); err != nil {
		c.warnf("tracecache: publishing the program of %s (%s): %v", sc.Key, hash, err)
	} else {
		c.bytesWritten.Add(n)
		c.enforceCap(hash)
	}
	return prog, nil
}

// programInfo describes an entry's program file for List without
// verifying its image: the version it was lowered under, its size, and
// why this build would not serve it (nil if it would, as far as the
// header tells).
func (c *Cache) programInfo(hash string, sc *sidecar) (version int, size int64, problem error) {
	f, err := os.Open(filepath.Join(c.dir, hash+programSuffix))
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	b := make([]byte, programHeaderSize)
	n, _ := f.ReadAt(b, 0)
	h, err := parseProgramHeader(b[:n])
	if err != nil {
		return 0, st.Size(), err
	}
	if st.Size() != programHeaderSize+h.imageSize {
		return int(h.lowering), st.Size(), fmt.Errorf("%w: program file is %d bytes, header says %d", ErrCorrupt, st.Size(), programHeaderSize+h.imageSize)
	}
	if sc != nil {
		problem = h.check(sc)
	}
	return int(h.lowering), st.Size(), problem
}

func parseCRC(s string) (uint32, error) {
	var v uint32
	if _, err := fmt.Sscanf(s, "%08x", &v); err != nil {
		return 0, fmt.Errorf("%w: checksum %q is not hex", ErrCorrupt, s)
	}
	return v, nil
}
