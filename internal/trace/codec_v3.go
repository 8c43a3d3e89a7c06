package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"unsafe"

	"hpctradeoff/internal/simtime"
)

// Version 3 ("zero-copy"), the only trace codec: the on-disk layout IS
// the in-memory Columns layout. After a fixed 64-byte header and a varint meta blob, the file
// holds one fixed-size extent record per rank and then the raw
// little-endian column arrays themselves — op bytes, int64 entry/exit
// times (not delta-coded), int32 field columns, and the two payload
// arenas — each 8-byte aligned within the file. A v3 file therefore
// maps into memory with mmap and zero decode: OpenMapped builds a
// *Columns whose column slices alias the mapping directly. The price is
// size (raw fixed-width fields instead of varints); the payoff is that
// opening a trace allocates nothing proportional to its length.
//
// Safety contract: every extent is validated before any slice is
// formed — in bounds of the file, 8-byte aligned, no offset/length
// overflow — and every Waitall/Alltoallv row's arena window is checked
// against its arena's length, so a hostile file can never over-map or
// index out of the mapping. Big-endian hosts and unaligned buffers go
// through the same parser in copy mode, so acceptance is identical
// across the zero-copy and copying paths.
//
// Layout (all integers little-endian):
//
//	[ 0, 4)   magic "HTRC"
//	[ 4, 5)   version 3 (uvarint-compatible single byte)
//	[ 5, 8)   zero padding
//	[ 8,12)   u32 header size (64)
//	[12,16)   u32 rank count
//	[16,24)   u64 meta blob offset
//	[24,32)   u64 meta blob length
//	[32,40)   u64 extent table offset (rankCount × 128-byte records)
//	[40,48)   u64 total file size (a shorter or longer input is rejected)
//	[48,64)   reserved (zero)
//
// Extent record (one per rank, 16 × u64 = 128 bytes):
//
//	n, reqArenaLen, sbArenaLen,
//	offsets of: op, entry, exit, peer, tag, root, req, comm, bytes,
//	            auxOff, auxLen, reqArena, sbArena

const (
	binaryVersionV3 = 3

	v3HeaderSize = 64
	v3ExtentSize = 16 * 8
	v3Align      = 8
)

// v3LittleEndian reports whether the host stores integers little-endian
// (the only layout v3 aliases without decoding).
var v3LittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// v3Extent is one rank's decoded extent record.
type v3Extent struct {
	n, reqLen, sbLen uint64
	// off holds the 13 column offsets in layout order.
	off [13]uint64
}

// v3 column element sizes, in layout order: op, entry, exit, peer, tag,
// root, req, comm, bytes, auxOff, auxLen, reqArena, sbArena.
var v3ElemSize = [13]uint64{1, 8, 8, 4, 4, 4, 4, 4, 8, 4, 4, 4, 8}

func v3AlignUp(off uint64) uint64 {
	return (off + v3Align - 1) &^ uint64(v3Align-1)
}

// v3Layout computes every rank's extents and the total file size for
// encoding c with a metaLen-byte meta blob.
func v3Layout(c *Columns, metaLen int) ([]v3Extent, uint64) {
	off := v3AlignUp(v3HeaderSize + uint64(metaLen))
	off = v3AlignUp(off + uint64(len(c.ranks))*v3ExtentSize)
	exts := make([]v3Extent, len(c.ranks))
	for r := range c.ranks {
		rc := &c.ranks[r]
		e := &exts[r]
		e.n = uint64(len(rc.op))
		e.reqLen = uint64(len(rc.reqArena))
		e.sbLen = uint64(len(rc.sbArena))
		counts := [13]uint64{e.n, e.n, e.n, e.n, e.n, e.n, e.n, e.n, e.n, e.n, e.n, e.reqLen, e.sbLen}
		for i := range e.off {
			off = v3AlignUp(off)
			e.off[i] = off
			off += counts[i] * v3ElemSize[i]
		}
	}
	return exts, v3AlignUp(off)
}

// V3Size returns the exact encoded size of c in the version-3 format —
// also its mapped-resident footprint, since a v3 file is its own
// in-memory representation.
func V3Size(c *Columns) int64 {
	_, size := v3Layout(c, len(appendMetaComms(nil, c.Meta, &c.Comms)))
	return int64(size)
}

// v3ExtTableOff returns the extent table offset for a metaLen-byte meta
// blob (the layout is deterministic, so writer and reader agree).
func v3ExtTableOff(metaLen int) uint64 {
	return v3AlignUp(v3HeaderSize + uint64(metaLen))
}

// WriteColumnsV3 encodes c in the version-3 zero-copy binary format.
func WriteColumnsV3(w io.Writer, c *Columns) error {
	meta := appendMetaComms(nil, c.Meta, &c.Comms)
	exts, fileSize := v3Layout(c, len(meta))
	bw := bufio.NewWriterSize(w, 1<<16)
	var pos uint64

	var hdr [v3HeaderSize]byte
	copy(hdr[0:4], binaryMagic)
	hdr[4] = binaryVersionV3
	binary.LittleEndian.PutUint32(hdr[8:12], v3HeaderSize)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(c.ranks)))
	binary.LittleEndian.PutUint64(hdr[16:24], v3HeaderSize)
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(len(meta)))
	binary.LittleEndian.PutUint64(hdr[32:40], v3ExtTableOff(len(meta)))
	binary.LittleEndian.PutUint64(hdr[40:48], fileSize)
	bw.Write(hdr[:])
	pos += v3HeaderSize
	bw.Write(meta)
	pos += uint64(len(meta))

	pad := func(to uint64) {
		for ; pos < to; pos++ {
			bw.WriteByte(0)
		}
	}

	pad(v3ExtTableOff(len(meta)))
	var rec [v3ExtentSize]byte
	for r := range exts {
		e := &exts[r]
		binary.LittleEndian.PutUint64(rec[0:], e.n)
		binary.LittleEndian.PutUint64(rec[8:], e.reqLen)
		binary.LittleEndian.PutUint64(rec[16:], e.sbLen)
		for i, off := range e.off {
			binary.LittleEndian.PutUint64(rec[24+8*i:], off)
		}
		bw.Write(rec[:])
		pos += v3ExtentSize
	}

	for r := range c.ranks {
		rc := &c.ranks[r]
		e := &exts[r]
		cols := [13]func(){
			func() { pos += writeV3Ops(bw, rc.op) },
			func() { pos += writeV3I64(bw, timesAsI64(rc.entry)) },
			func() { pos += writeV3I64(bw, timesAsI64(rc.exit)) },
			func() { pos += writeV3I32(bw, rc.peer) },
			func() { pos += writeV3I32(bw, rc.tag) },
			func() { pos += writeV3I32(bw, rc.root) },
			func() { pos += writeV3I32(bw, rc.req) },
			func() { pos += writeV3I32(bw, commsAsI32(rc.comm)) },
			func() { pos += writeV3I64(bw, rc.bytes) },
			func() { pos += writeV3U32(bw, rc.auxOff) },
			func() { pos += writeV3U32(bw, rc.auxLen) },
			func() { pos += writeV3I32(bw, rc.reqArena) },
			func() { pos += writeV3I64(bw, rc.sbArena) },
		}
		for i, write := range cols {
			pad(e.off[i])
			write()
		}
	}
	pad(fileSize)
	return bw.Flush()
}

// The slice-reinterpretation helpers below are layout-preserving views
// (simtime.Time and CommID are defined as int64/int32); they exist so
// the typed writers stay monomorphic.
func timesAsI64(s []simtime.Time) []int64 {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&s[0])), len(s))
}

func commsAsI32(s []CommID) []int32 {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&s[0])), len(s))
}

func writeV3Ops(bw *bufio.Writer, s []Op) uint64 {
	if len(s) == 0 {
		return 0
	}
	bw.Write(unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)))
	return uint64(len(s))
}

func writeV3I64(bw *bufio.Writer, s []int64) uint64 {
	if v3LittleEndian && len(s) > 0 {
		bw.Write(unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8))
		return uint64(len(s)) * 8
	}
	var b [8]byte
	for _, v := range s {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		bw.Write(b[:])
	}
	return uint64(len(s)) * 8
}

func writeV3I32(bw *bufio.Writer, s []int32) uint64 {
	if v3LittleEndian && len(s) > 0 {
		bw.Write(unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4))
		return uint64(len(s)) * 4
	}
	var b [4]byte
	for _, v := range s {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		bw.Write(b[:])
	}
	return uint64(len(s)) * 4
}

func writeV3U32(bw *bufio.Writer, s []uint32) uint64 {
	if v3LittleEndian && len(s) > 0 {
		bw.Write(unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4))
		return uint64(len(s)) * 4
	}
	var b [4]byte
	for _, v := range s {
		binary.LittleEndian.PutUint32(b[:], v)
		bw.Write(b[:])
	}
	return uint64(len(s)) * 4
}

// v3Aliasable reports whether data can back zero-copy column slices:
// a little-endian host and an 8-byte-aligned base (mmap regions always
// are; heap buffers almost always are, but it is checked, not assumed).
func v3Aliasable(data []byte) bool {
	return v3LittleEndian && len(data) > 0 &&
		uintptr(unsafe.Pointer(&data[0]))%v3Align == 0
}

// parseV3 parses a complete v3 file image. When alias is true the
// returned Columns' slices point directly into data (zero decode; the
// caller owns data's lifetime); otherwise every column is copied out
// with explicit little-endian decoding, which works on any host.
// Either way the same validation runs first, so the two modes accept
// exactly the same inputs.
func parseV3(data []byte, alias bool) (*Columns, error) {
	if len(data) <= len(binaryMagic) || string(data[:len(binaryMagic)]) != binaryMagic {
		return nil, fmt.Errorf("%w: not an %s trace; regenerate it with tracegen or dumpiconv", ErrBadFormat, binaryMagic)
	}
	if v := data[len(binaryMagic)]; v != binaryVersionV3 {
		return nil, fmt.Errorf("%w: codec v%d, this build reads only v%d; regenerate the file with tracegen or dumpiconv",
			ErrBadFormat, v, binaryVersionV3)
	}
	if len(data) < v3HeaderSize {
		return nil, fmt.Errorf("%w: v3 header truncated at %d bytes", ErrBadFormat, len(data))
	}
	size := uint64(len(data))
	hdrSize := binary.LittleEndian.Uint32(data[8:12])
	numRanks := binary.LittleEndian.Uint32(data[12:16])
	metaOff := binary.LittleEndian.Uint64(data[16:24])
	metaLen := binary.LittleEndian.Uint64(data[24:32])
	extOff := binary.LittleEndian.Uint64(data[32:40])
	fileSize := binary.LittleEndian.Uint64(data[40:48])
	if hdrSize != v3HeaderSize {
		return nil, fmt.Errorf("%w: v3 header size %d", ErrBadFormat, hdrSize)
	}
	if fileSize != size {
		return nil, fmt.Errorf("%w: v3 header says %d bytes, stream holds %d", ErrBadFormat, fileSize, size)
	}
	if numRanks > maxRanks {
		return nil, fmt.Errorf("%w: implausible rank count %d", ErrBadFormat, numRanks)
	}
	if metaOff != v3HeaderSize || metaLen > size || metaOff+metaLen > size {
		return nil, fmt.Errorf("%w: v3 meta blob [%d,+%d) out of bounds", ErrBadFormat, metaOff, metaLen)
	}
	if extOff != v3ExtTableOff(int(metaLen)) {
		return nil, fmt.Errorf("%w: v3 extent table at %d, layout says %d", ErrBadFormat, extOff, v3ExtTableOff(int(metaLen)))
	}
	extEnd := extOff + uint64(numRanks)*v3ExtentSize
	if extEnd < extOff || extEnd > size {
		return nil, fmt.Errorf("%w: v3 extent table [%d,+%d×%d) out of bounds", ErrBadFormat, extOff, numRanks, v3ExtentSize)
	}

	meta, ct, err := parseMetaComms(data[metaOff : metaOff+metaLen])
	if err != nil {
		return nil, err
	}
	if meta.NumRanks != int(numRanks) {
		return nil, fmt.Errorf("%w: meta says %d ranks, v3 header says %d", ErrBadFormat, meta.NumRanks, numRanks)
	}

	c := &Columns{Meta: meta, Comms: ct, ranks: make([]rankCols, numRanks)}
	for r := 0; r < int(numRanks); r++ {
		if err := failRead.Fail(); err != nil {
			return nil, fmt.Errorf("trace: rank %d: %w", r, err)
		}
		rec := data[extOff+uint64(r)*v3ExtentSize:][:v3ExtentSize]
		var e v3Extent
		e.n = binary.LittleEndian.Uint64(rec[0:])
		e.reqLen = binary.LittleEndian.Uint64(rec[8:])
		e.sbLen = binary.LittleEndian.Uint64(rec[16:])
		for i := range e.off {
			e.off[i] = binary.LittleEndian.Uint64(rec[24+8*i:])
		}
		if e.n > maxRankEvents {
			return nil, fmt.Errorf("%w: rank %d: implausible event count %d", ErrBadFormat, r, e.n)
		}
		counts := [13]uint64{e.n, e.n, e.n, e.n, e.n, e.n, e.n, e.n, e.n, e.n, e.n, e.reqLen, e.sbLen}
		for i := range e.off {
			// The over-map guard: offset aligned, and offset+length inside
			// the file with no uint64 wraparound. A failing extent rejects
			// the whole stream before any slice over it exists.
			if counts[i] == 0 {
				continue
			}
			byteLen := counts[i] * v3ElemSize[i]
			if byteLen/v3ElemSize[i] != counts[i] ||
				e.off[i]%v3Align != 0 ||
				e.off[i] > size || byteLen > size-e.off[i] {
				return nil, fmt.Errorf("%w: rank %d column %d extent [%d,+%d) misaligned or out of bounds",
					ErrBadFormat, r, i, e.off[i], byteLen)
			}
		}
		rc := &c.ranks[r]
		if alias {
			aliasV3Rank(rc, data, &e)
		} else {
			copyV3Rank(rc, data, &e)
		}
		// Semantic validation over the (now typed) columns: ops must be
		// valid, and every Waitall/Alltoallv row's arena window must lie
		// inside its arena — EventAt subslices them unchecked. This is
		// the only per-event work on the open path, so the loop ranges
		// over the op column directly and touches the aux columns only
		// on the (rare) windowed ops.
		for i, op := range rc.op {
			if op >= numOps {
				return nil, fmt.Errorf("%w: rank %d event %d: bad op %d", ErrBadFormat, r, i, byte(op))
			}
			if op == OpWaitall {
				if uint64(rc.auxOff[i])+uint64(rc.auxLen[i]) > e.reqLen {
					return nil, fmt.Errorf("%w: rank %d event %d: waitall window [%d,+%d) outside arena of %d",
						ErrBadFormat, r, i, rc.auxOff[i], rc.auxLen[i], e.reqLen)
				}
			} else if op == OpAlltoallv {
				if uint64(rc.auxOff[i])+uint64(rc.auxLen[i]) > e.sbLen {
					return nil, fmt.Errorf("%w: rank %d event %d: alltoallv window [%d,+%d) outside arena of %d",
						ErrBadFormat, r, i, rc.auxOff[i], rc.auxLen[i], e.sbLen)
				}
			}
		}
	}
	return c, nil
}

// aliasV3Rank points one rank's columns directly into the file image.
func aliasV3Rank(rc *rankCols, data []byte, e *v3Extent) {
	n := int(e.n)
	at := func(i int) unsafe.Pointer { return unsafe.Pointer(&data[e.off[i]]) }
	if n > 0 {
		rc.op = unsafe.Slice((*Op)(at(0)), n)
		rc.entry = unsafe.Slice((*simtime.Time)(at(1)), n)
		rc.exit = unsafe.Slice((*simtime.Time)(at(2)), n)
		rc.peer = unsafe.Slice((*int32)(at(3)), n)
		rc.tag = unsafe.Slice((*int32)(at(4)), n)
		rc.root = unsafe.Slice((*int32)(at(5)), n)
		rc.req = unsafe.Slice((*int32)(at(6)), n)
		rc.comm = unsafe.Slice((*CommID)(at(7)), n)
		rc.bytes = unsafe.Slice((*int64)(at(8)), n)
		rc.auxOff = unsafe.Slice((*uint32)(at(9)), n)
		rc.auxLen = unsafe.Slice((*uint32)(at(10)), n)
	}
	if e.reqLen > 0 {
		rc.reqArena = unsafe.Slice((*int32)(at(11)), int(e.reqLen))
	}
	if e.sbLen > 0 {
		rc.sbArena = unsafe.Slice((*int64)(at(12)), int(e.sbLen))
	}
}

// copyV3Rank decodes one rank's columns into fresh slices with explicit
// little-endian reads — the portable path for big-endian hosts and
// unaligned buffers.
func copyV3Rank(rc *rankCols, data []byte, e *v3Extent) {
	n := int(e.n)
	if n > 0 {
		rc.op = make([]Op, n)
		for i, b := range data[e.off[0]:][:n] {
			rc.op[i] = Op(b)
		}
		rc.entry = make([]simtime.Time, n)
		rc.exit = make([]simtime.Time, n)
		rc.peer = make([]int32, n)
		rc.tag = make([]int32, n)
		rc.root = make([]int32, n)
		rc.req = make([]int32, n)
		rc.comm = make([]CommID, n)
		rc.bytes = make([]int64, n)
		rc.auxOff = make([]uint32, n)
		rc.auxLen = make([]uint32, n)
		for i := 0; i < n; i++ {
			rc.entry[i] = simtime.Time(binary.LittleEndian.Uint64(data[e.off[1]+uint64(i)*8:]))
			rc.exit[i] = simtime.Time(binary.LittleEndian.Uint64(data[e.off[2]+uint64(i)*8:]))
			rc.peer[i] = int32(binary.LittleEndian.Uint32(data[e.off[3]+uint64(i)*4:]))
			rc.tag[i] = int32(binary.LittleEndian.Uint32(data[e.off[4]+uint64(i)*4:]))
			rc.root[i] = int32(binary.LittleEndian.Uint32(data[e.off[5]+uint64(i)*4:]))
			rc.req[i] = int32(binary.LittleEndian.Uint32(data[e.off[6]+uint64(i)*4:]))
			rc.comm[i] = CommID(binary.LittleEndian.Uint32(data[e.off[7]+uint64(i)*4:]))
			rc.bytes[i] = int64(binary.LittleEndian.Uint64(data[e.off[8]+uint64(i)*8:]))
			rc.auxOff[i] = binary.LittleEndian.Uint32(data[e.off[9]+uint64(i)*4:])
			rc.auxLen[i] = binary.LittleEndian.Uint32(data[e.off[10]+uint64(i)*4:])
		}
	}
	if e.reqLen > 0 {
		rc.reqArena = make([]int32, e.reqLen)
		for i := range rc.reqArena {
			rc.reqArena[i] = int32(binary.LittleEndian.Uint32(data[e.off[11]+uint64(i)*4:]))
		}
	}
	if e.sbLen > 0 {
		rc.sbArena = make([]int64, e.sbLen)
		for i := range rc.sbArena {
			rc.sbArena[i] = int64(binary.LittleEndian.Uint64(data[e.off[12]+uint64(i)*8:]))
		}
	}
}
