package mpisim

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"unsafe"
)

// A program image is a Program written out as it lies in memory, so
// that OpenProgram can alias a mapped file instead of decoding it. The
// layout (all integers little-endian, every section 8-byte aligned):
//
//	[ 0, 4)  magic "HPRG"
//	[ 4, 8)  u32 image format version (2)
//	[ 8,12)  u32 LoweringVersion of the build that lowered the program
//	[12,16)  u32 Rop size in bytes
//	[16,20)  u32 rank count n
//	[20,24)  u32 channel count
//	[24,32)  u64 op count
//	[32,40)  u64 wait-arena length
//	[40,48)  u64 image size (a shorter or longer input is rejected)
//	[48,104) u64 section offsets: opOff, evCount, reqCount, appReqs,
//	         ops, waits, chans
//
// followed by the sections: opOff as (n+1) × i64, evCount, reqCount and
// appReqs as n × i32, the ops as raw Rops, the wait arena as i32, and
// the channel table as one (src, dst) pair of i32 per channel.
// The offsets are redundant with the counts (the layout is canonical)
// and are checked against them, so a stored offset can never point a
// section somewhere else.
//
// OpenProgram validates everything a replay indexes with before it
// hands out a Program: section bounds and alignment, every channel's
// ends, every op's kind, event, channel and request, and every wait
// set. A p2p op's channel must have the op's own rank at its end: the
// sender's for a send, the receiver's for a receive. A damaged image
// is an error wrapping ErrBadProgram, never a panic or an out-of-range
// read later. What it cannot see is a well-formed program that belongs
// to another trace or was lowered by other rules: LoweringVersion,
// Program.Fits and the checksum of whoever stores the image cover
// those.

const (
	imageMagic   = "HPRG"
	imageFormat  = 2
	imageHdrSize = 104
	imageAlign   = 8
	numSections  = 7
)

// ErrBadProgram is wrapped by every OpenProgram error.
var ErrBadProgram = errors.New("mpisim: malformed program image")

// imageLittleEndian reports whether the host stores integers
// little-endian, the only layout images are written and aliased in.
var imageLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func alignUp(off uint64) uint64 { return (off + imageAlign - 1) &^ (imageAlign - 1) }

// imageLayout returns the canonical section offsets and total size of
// an image with the given counts, or ok=false if they overflow.
func imageLayout(n, ops, waits, chans uint64) (off [numSections]uint64, size uint64, ok bool) {
	if n > 1<<31 || ops > 1<<56/uint64(ropSize) || waits > 1<<56 || chans > 1<<31 {
		return off, 0, false
	}
	lens := [numSections]uint64{(n + 1) * 8, n * 4, n * 4, n * 4, ops * uint64(ropSize), waits * 4, chans * 8}
	at := uint64(imageHdrSize)
	for i, l := range lens {
		at = alignUp(at)
		off[i] = at
		at += l
	}
	return off, alignUp(at), true
}

// WriteImage writes p's image to w. Images are little-endian; on a
// big-endian host WriteImage refuses rather than write one that no
// host could alias.
func (p *Program) WriteImage(w io.Writer) error {
	if !imageLittleEndian {
		return errors.New("mpisim: program images are written on little-endian hosts only")
	}
	n := uint64(len(p.evCount))
	off, size, ok := imageLayout(n, uint64(len(p.arena)), uint64(len(p.waits)), uint64(len(p.chans)))
	if !ok {
		return fmt.Errorf("mpisim: program too large for an image")
	}
	var hdr [imageHdrSize]byte
	copy(hdr[0:4], imageMagic)
	le := binary.LittleEndian
	le.PutUint32(hdr[4:], imageFormat)
	le.PutUint32(hdr[8:], LoweringVersion)
	le.PutUint32(hdr[12:], uint32(ropSize))
	le.PutUint32(hdr[16:], uint32(n))
	le.PutUint32(hdr[20:], uint32(len(p.chans)))
	le.PutUint64(hdr[24:], uint64(len(p.arena)))
	le.PutUint64(hdr[32:], uint64(len(p.waits)))
	le.PutUint64(hdr[40:], size)
	for i, o := range off {
		le.PutUint64(hdr[48+8*i:], o)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.Write(hdr[:])
	pos := uint64(imageHdrSize)
	sections := [numSections][]byte{
		asBytes(p.opOff), asBytes(p.evCount), asBytes(p.reqCount), asBytes(p.appReqs),
		asBytes(p.arena), asBytes(p.waits), asBytes(p.chans),
	}
	var zero [imageAlign]byte
	for i, b := range sections {
		bw.Write(zero[:off[i]-pos])
		bw.Write(b)
		pos = off[i] + uint64(len(b))
	}
	bw.Write(zero[:size-pos])
	return bw.Flush()
}

// asBytes views a slice of fixed-size, pointer-free elements as bytes.
func asBytes[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// asSlice views n elements of type T at data[off:] without copying.
// The caller has checked bounds and alignment.
func asSlice[T any](data []byte, off uint64, n int) []T {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&data[off])), n)
}

// OpenProgram returns the Program of the image in data, aliasing data
// rather than copying it: data must stay valid and unmodified for as
// long as the Program is used. A data buffer that is not 8-byte
// aligned (mappings always are) is copied once into one that is.
func OpenProgram(data []byte) (*Program, error) {
	bad := func(format string, args ...any) (*Program, error) {
		return nil, fmt.Errorf("%w: %s", ErrBadProgram, fmt.Sprintf(format, args...))
	}
	if !imageLittleEndian {
		return bad("this host is big-endian")
	}
	if len(data) < imageHdrSize {
		return bad("header truncated at %d bytes", len(data))
	}
	le := binary.LittleEndian
	if string(data[0:4]) != imageMagic {
		return bad("magic %q", data[0:4])
	}
	if v := le.Uint32(data[4:]); v != imageFormat {
		return bad("image format %d, this build reads %d", v, imageFormat)
	}
	if v := le.Uint32(data[8:]); v != LoweringVersion {
		return bad("lowering version %d, this build lowers version %d", v, LoweringVersion)
	}
	if v := le.Uint32(data[12:]); v != uint32(ropSize) {
		return bad("op size %d, this build's is %d", v, ropSize)
	}
	n := uint64(le.Uint32(data[16:]))
	numChans := uint64(le.Uint32(data[20:]))
	nOps, nWaits, size := le.Uint64(data[24:]), le.Uint64(data[32:]), le.Uint64(data[40:])
	if size != uint64(len(data)) {
		return bad("header says %d bytes, image holds %d", size, len(data))
	}
	if numChans > 1<<31-1 {
		return bad("implausible channel count %d", numChans)
	}
	off, want, ok := imageLayout(n, nOps, nWaits, numChans)
	if !ok || want != size {
		return bad("counts (%d ranks, %d ops, %d wait entries) do not fit a %d-byte image", n, nOps, nWaits, size)
	}
	for i := range off {
		got := le.Uint64(data[48+8*i:])
		if got%imageAlign != 0 {
			return bad("section %d at offset %d is misaligned", i, got)
		}
		if got != off[i] {
			return bad("section %d at offset %d, layout says %d", i, got, off[i])
		}
	}
	if uintptr(unsafe.Pointer(&data[0]))%imageAlign != 0 {
		buf := asBytes(make([]uint64, (len(data)+7)/8))[:len(data)]
		copy(buf, data)
		data = buf
	}

	p := &Program{
		opOff:    asSlice[int64](data, off[0], int(n+1)),
		evCount:  asSlice[int32](data, off[1], int(n)),
		reqCount: asSlice[int32](data, off[2], int(n)),
		appReqs:  asSlice[int32](data, off[3], int(n)),
		arena:    asSlice[Rop](data, off[4], int(nOps)),
		waits:    asSlice[int32](data, off[5], int(nWaits)),
		chans:    asSlice[chanEnds](data, off[6], int(numChans)),
	}
	if err := p.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProgram, err)
	}
	p.views()
	return p, nil
}

// validate checks everything a replay indexes with or sizes its state
// by, so that a program that passes can be replayed without an
// out-of-range access or an outsized allocation. Request and channel
// counts must be exactly what the ops use: every isend and irecv takes
// a fresh request id, and every channel is first used by some op. It
// runs before the per-rank views exist.
func (p *Program) validate() error {
	n := len(p.evCount)
	if p.opOff[0] != 0 || p.opOff[n] != int64(len(p.arena)) {
		return fmt.Errorf("op offsets span [%d,%d), arena holds %d", p.opOff[0], p.opOff[n], len(p.arena))
	}
	for c, e := range p.chans {
		if e.src < 0 || int(e.src) >= n || e.dst < 0 || int(e.dst) >= n {
			return fmt.Errorf("channel %d: ends %d→%d outside [0,%d)", c, e.src, e.dst, n)
		}
	}
	p2p := 0
	for r := 0; r < n; r++ {
		lo, hi := p.opOff[r], p.opOff[r+1]
		if hi < lo || hi > int64(len(p.arena)) {
			return fmt.Errorf("rank %d: op extent [%d,%d) outside the arena of %d", r, lo, hi, len(p.arena))
		}
		evs, reqs, app := p.evCount[r], p.reqCount[r], p.appReqs[r]
		if evs < 0 {
			return fmt.Errorf("rank %d: negative event count %d", r, evs)
		}
		var posts, appPosts int32
		lastEv := int32(0)
		ops := p.arena[lo:hi]
		for i := range ops {
			op := &ops[i]
			if op.Ev < lastEv || op.Ev >= evs {
				return opErr(r, i, op, "event %d outside [%d,%d)", op.Ev, lastEv, evs)
			}
			lastEv = op.Ev
			if op.Flags&^(RopColl|ropSpan) != 0 {
				return opErr(r, i, op, "unknown flags %#x", op.Flags)
			}
			if op.Flags&ropSpan != 0 && op.Kind != RopWait {
				return opErr(r, i, op, "a span that is not a wait")
			}
			switch op.Kind {
			case RopCompute:
				if op.Val < 0 {
					return opErr(r, i, op, "negative duration %v", op.Dur())
				}
			case RopSend, RopIsend, RopRecv, RopIrecv:
				p2p++
				if op.Ch < 0 || int(op.Ch) >= len(p.chans) {
					return opErr(r, i, op, "channel %d outside [0,%d)", op.Ch, len(p.chans))
				}
				e := p.chans[op.Ch]
				own := e.dst
				if op.Kind == RopSend || op.Kind == RopIsend {
					own = e.src
				}
				if own != int32(r) {
					return opErr(r, i, op, "channel %d runs %d→%d, its end here is not this rank", op.Ch, e.src, e.dst)
				}
				if op.Val < 0 {
					return opErr(r, i, op, "negative payload %d", op.Bytes())
				}
				if op.Kind == RopIsend || op.Kind == RopIrecv {
					if op.Req < 0 || op.Req >= reqs {
						return opErr(r, i, op, "request %d outside [0,%d)", op.Req, reqs)
					}
					posts++
					if op.Flags&RopColl == 0 {
						if op.Req >= app {
							return opErr(r, i, op, "the trace's request %d outside [0,%d)", op.Req, app)
						}
						appPosts++
					}
				}
			case RopWait:
				// A trace's own wait completes only the trace's requests.
				limit := reqs
				if op.Flags&RopColl == 0 {
					limit = app
				}
				lo, hi := op.waitSet()
				if op.Flags&ropSpan != 0 {
					if lo < 0 || hi < lo || hi > int64(limit) {
						return opErr(r, i, op, "waits on requests [%d,%d) outside [0,%d)", lo, hi, limit)
					}
					continue
				}
				if lo < 0 || hi < lo || hi > int64(len(p.waits)) {
					return opErr(r, i, op, "wait set [%d,%d) outside the arena of %d", lo, hi, len(p.waits))
				}
				for _, q := range p.waits[lo:hi] {
					if q < 0 || q >= limit {
						return opErr(r, i, op, "waits on request %d outside [0,%d)", q, limit)
					}
				}
			default:
				return opErr(r, i, op, "unknown kind")
			}
		}
		if reqs != posts || app != appPosts {
			return fmt.Errorf("rank %d: counts %d requests (%d of them the trace's), its ops post %d (%d)",
				r, reqs, app, posts, appPosts)
		}
	}
	if len(p.chans) > p2p {
		return fmt.Errorf("%d channels for %d point-to-point ops", len(p.chans), p2p)
	}
	return nil
}

func opErr(r, i int, op *Rop, format string, args ...any) error {
	return fmt.Errorf("rank %d op %d (%v): %s", r, i, op.Kind, fmt.Sprintf(format, args...))
}
