package mpisim

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"unsafe"
)

// A program image is a Program written out as it lies in memory, so
// that OpenProgram can alias a mapped file instead of decoding it. The
// layout (all integers little-endian, every section 8-byte aligned):
//
//	[ 0,  4) magic "HPRG"
//	[ 4,  8) u32 image format version (3)
//	[ 8, 12) u32 LoweringVersion of the build that lowered the program
//	[12, 16) u32 Rop size in bytes
//	[16, 20) u32 rank count n
//	[20, 24) u32 channel count
//	[24, 28) u32 template entry size in bytes
//	[28, 32) zero
//	[32, 40) u64 op count
//	[40, 48) u64 wait-arena length
//	[48, 56) u64 template count
//	[56, 64) u64 template op count
//	[64, 72) u64 image size (a shorter or longer input is rejected)
//	[72,144) u64 section offsets: opOff, reqCount, appReqs, ops, waits,
//	         chans, tmplOff, templates, template ops
//
// followed by the sections: opOff as (n+1) × i64, reqCount and appReqs
// as n × i32, the ops as raw Rops (one per trace event), the wait arena
// as i32, the channel table as one (src, dst) pair of i32 per channel,
// tmplOff as (n+1) × i64, the template table as raw entries (rank r's
// are entries tmplOff[r] to tmplOff[r+1]), and the templates' ops as
// raw Rops. The offsets are redundant with the counts (the layout is
// canonical) and are checked against them, so a stored offset can
// never point a section somewhere else.
//
// OpenProgram validates everything a replay indexes with before it
// hands out a Program: section bounds and alignment, every channel's
// ends, every op's kind, event, channel and request, every wait set,
// and every template: its extents, its rounds, and the request ids its
// instances offset them by. A p2p op's channel must have the op's own
// rank at its end — the sender's for a send, the receiver's for a
// receive — and so must a template round's, for the rank that owns the
// template. A damaged image is an error wrapping ErrBadProgram, never a
// panic or an out-of-range read later. What it cannot see is a
// well-formed program that belongs to another trace or was lowered by
// other rules: LoweringVersion, Program.Fits and the checksum of
// whoever stores the image cover those.

// ImageHeaderSize is the size of an image's header, the part
// ReadImageSize reads.
const ImageHeaderSize = 144

const (
	imageMagic  = "HPRG"
	imageFormat = 3
	imageAlign  = 8
	numSections = 9
	offsetsAt   = 72
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

// imageCounts are the element counts an image's header declares.
type imageCounts struct {
	ranks, chans, ops, waits, tmpls, tops uint64
}

// layout returns the canonical section offsets and total size of an
// image with counts c, or ok=false if they overflow.
func (c imageCounts) layout() (off [numSections]uint64, size uint64, ok bool) {
	if c.ranks > 1<<31 || c.ops > 1<<56/uint64(ropSize) || c.waits > 1<<56 || c.chans > 1<<31 ||
		c.tmpls > 1<<56/uint64(templateSize) || c.tops > 1<<56/uint64(ropSize) {
		return off, 0, false
	}
	n := c.ranks
	lens := [numSections]uint64{(n + 1) * 8, n * 4, n * 4, c.ops * uint64(ropSize), c.waits * 4, c.chans * 8,
		(n + 1) * 8, c.tmpls * uint64(templateSize), c.tops * uint64(ropSize)}
	at := uint64(ImageHeaderSize)
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
	c := imageCounts{ranks: uint64(len(p.reqCount)), chans: uint64(len(p.chans)), ops: uint64(len(p.arena)),
		waits: uint64(len(p.waits)), tmpls: uint64(len(p.tmpls)), tops: uint64(len(p.tarena))}
	off, size, ok := c.layout()
	if !ok {
		return fmt.Errorf("mpisim: program too large for an image")
	}
	var hdr [ImageHeaderSize]byte
	copy(hdr[0:4], imageMagic)
	le := binary.LittleEndian
	le.PutUint32(hdr[4:], imageFormat)
	le.PutUint32(hdr[8:], LoweringVersion)
	le.PutUint32(hdr[12:], uint32(ropSize))
	le.PutUint32(hdr[16:], uint32(c.ranks))
	le.PutUint32(hdr[20:], uint32(c.chans))
	le.PutUint32(hdr[24:], uint32(templateSize))
	for i, v := range []uint64{c.ops, c.waits, c.tmpls, c.tops, size} {
		le.PutUint64(hdr[32+8*i:], v)
	}
	for i, o := range off {
		le.PutUint64(hdr[offsetsAt+8*i:], o)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.Write(hdr[:])
	pos := uint64(ImageHeaderSize)
	sections := [numSections][]byte{
		asBytes(p.opOff), asBytes(p.reqCount), asBytes(p.appReqs), asBytes(p.arena), asBytes(p.waits),
		asBytes(p.chans), asBytes(p.tmplOff), asBytes(p.tmpls), asBytes(p.tarena),
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

// ImageSize is what an image's header says of the program it holds.
type ImageSize struct {
	// Ops is the number of ops of the ranks themselves, one per trace
	// event; Templates and TemplateOps count the collective templates
	// and the rounds they hold.
	Ops, Templates, TemplateOps uint64
}

// ReadImageSize reads the counts in the header of an image of this
// build's format, without validating the rest: enough to describe a
// stored program without opening it.
func ReadImageSize(hdr []byte) (ImageSize, error) {
	if len(hdr) < ImageHeaderSize || string(hdr[0:4]) != imageMagic {
		return ImageSize{}, fmt.Errorf("%w: no image header", ErrBadProgram)
	}
	le := binary.LittleEndian
	if v := le.Uint32(hdr[4:]); v != imageFormat {
		return ImageSize{}, fmt.Errorf("%w: image format %d, this build reads %d", ErrBadProgram, v, imageFormat)
	}
	return ImageSize{Ops: le.Uint64(hdr[32:]), Templates: le.Uint64(hdr[48:]), TemplateOps: le.Uint64(hdr[56:])}, nil
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
	if len(data) < ImageHeaderSize {
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
	if v := le.Uint32(data[24:]); v != uint32(templateSize) || le.Uint32(data[28:]) != 0 {
		return bad("template size %d, this build's is %d", v, templateSize)
	}
	c := imageCounts{ranks: uint64(le.Uint32(data[16:])), chans: uint64(le.Uint32(data[20:])),
		ops: le.Uint64(data[32:]), waits: le.Uint64(data[40:]), tmpls: le.Uint64(data[48:]), tops: le.Uint64(data[56:])}
	size := le.Uint64(data[64:])
	if size != uint64(len(data)) {
		return bad("header says %d bytes, image holds %d", size, len(data))
	}
	if c.chans > 1<<31-1 {
		return bad("implausible channel count %d", c.chans)
	}
	off, want, ok := c.layout()
	if !ok || want != size {
		return bad("counts (%d ranks, %d ops, %d wait entries, %d templates of %d ops) do not fit a %d-byte image",
			c.ranks, c.ops, c.waits, c.tmpls, c.tops, size)
	}
	for i := range off {
		got := le.Uint64(data[offsetsAt+8*i:])
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

	n := int(c.ranks)
	p := &Program{
		opOff:    asSlice[int64](data, off[0], n+1),
		reqCount: asSlice[int32](data, off[1], n),
		appReqs:  asSlice[int32](data, off[2], n),
		arena:    asSlice[Rop](data, off[3], int(c.ops)),
		waits:    asSlice[int32](data, off[4], int(c.waits)),
		chans:    asSlice[chanEnds](data, off[5], int(c.chans)),
		tmplOff:  asSlice[int64](data, off[6], n+1),
		tmpls:    asSlice[collTemplate](data, off[7], int(c.tmpls)),
		tarena:   asSlice[Rop](data, off[8], int(c.tops)),
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
// counts must be exactly what the ops use: every isend and irecv of
// the trace takes a fresh request id, the collectives' share the ids
// after them that the largest template needs, and every channel is
// first used by some op. It runs before the per-rank views exist.
func (p *Program) validate() error {
	n := len(p.reqCount)
	if p.opOff[0] != 0 || p.opOff[n] != int64(len(p.arena)) {
		return fmt.Errorf("op offsets span [%d,%d), arena holds %d", p.opOff[0], p.opOff[n], len(p.arena))
	}
	if p.tmplOff[0] != 0 || p.tmplOff[n] != int64(len(p.tmpls)) {
		return fmt.Errorf("template offsets span [%d,%d), table holds %d", p.tmplOff[0], p.tmplOff[n], len(p.tmpls))
	}
	for c, e := range p.chans {
		if e.src < 0 || int(e.src) >= n || e.dst < 0 || int(e.dst) >= n {
			return fmt.Errorf("channel %d: ends %d→%d outside [0,%d)", c, e.src, e.dst, n)
		}
	}
	p2p := 0
	for r := 0; r < n; r++ {
		lo, hi := p.opOff[r], p.opOff[r+1]
		if hi < lo || hi > int64(len(p.arena)) || hi-lo > math.MaxInt32 {
			return fmt.Errorf("rank %d: op extent [%d,%d) outside the arena of %d", r, lo, hi, len(p.arena))
		}
		tlo, thi := p.tmplOff[r], p.tmplOff[r+1]
		if thi < tlo || thi > int64(len(p.tmpls)) {
			return fmt.Errorf("rank %d: template extent [%d,%d) outside the table of %d", r, tlo, thi, len(p.tmpls))
		}
		reqs, app := p.reqCount[r], p.appReqs[r]
		if app < 0 || reqs < app {
			return fmt.Errorf("rank %d: %d requests, %d of them the trace's", r, reqs, app)
		}
		var most int32
		for t := tlo; t < thi; t++ {
			k, err := p.validateTemplate(int32(r), &p.tmpls[t])
			if err != nil {
				return fmt.Errorf("rank %d template %d: %v", r, t-tlo, err)
			}
			p2p += k
			most = max(most, p.tmpls[t].reqs)
		}
		var appPosts int32
		ops := p.arena[lo:hi]
		for i := range ops {
			op := &ops[i]
			if err := checkFlags(op); err != nil {
				return opErr(r, i, op, "%v", err)
			}
			switch op.Kind {
			case RopCompute:
				if op.Val < 0 {
					return opErr(r, i, op, "negative duration %v", op.Dur())
				}
			case RopSend, RopIsend, RopRecv, RopIrecv:
				p2p++
				if err := p.checkP2P(int32(r), op); err != nil {
					return opErr(r, i, op, "%v", err)
				}
				if op.Kind == RopIsend || op.Kind == RopIrecv {
					if op.Req < 0 || op.Req >= app {
						return opErr(r, i, op, "the trace's request %d outside [0,%d)", op.Req, app)
					}
					appPosts++
				}
			case RopWait:
				// A trace's own wait completes only the trace's requests.
				if err := p.checkWait(op, app, 0, int64(len(p.waits))); err != nil {
					return opErr(r, i, op, "%v", err)
				}
			case RopCollective:
				if op.Ch < 0 || int64(op.Ch) >= thi-tlo {
					return opErr(r, i, op, "no such template: %d outside [0,%d)", op.Ch, thi-tlo)
				}
				t := p.tmpls[tlo+int64(op.Ch)]
				if op.Req < app || int64(op.Req)+int64(t.reqs) > int64(reqs) {
					return opErr(r, i, op, "requests [%d,%d) outside the rank's collective requests [%d,%d)",
						op.Req, int64(op.Req)+int64(t.reqs), app, reqs)
				}
			default:
				return opErr(r, i, op, "unknown kind")
			}
		}
		if app != appPosts || reqs != app+most {
			return fmt.Errorf("rank %d: counts %d requests (%d of them the trace's), its ops post %d and its templates %d",
				r, reqs, app, appPosts, most)
		}
	}
	if len(p.chans) > p2p {
		return fmt.Errorf("%d channels for %d point-to-point ops", len(p.chans), p2p)
	}
	return nil
}

// validateTemplate checks template t of rank r: its extents, its
// header's op, and its rounds, whose requests and wait sets must lie
// within the template's own. It returns how many point-to-point rounds
// it holds.
func (p *Program) validateTemplate(r int32, t *collTemplate) (int, error) {
	if t.opOff < 0 || t.opLen < 0 || t.opOff > int64(len(p.tarena))-int64(t.opLen) {
		return 0, fmt.Errorf("op extent [%d,+%d) outside the template arena of %d", t.opOff, t.opLen, len(p.tarena))
	}
	wlo, whi := t.waitOff, t.waitOff+int64(t.waitLen)
	if wlo < 0 || whi < wlo || whi > int64(len(p.waits)) {
		return 0, fmt.Errorf("wait extent [%d,%d) outside the wait arena of %d", wlo, whi, len(p.waits))
	}
	if t.reqs < 0 || !t.Op.IsCollective() {
		return 0, fmt.Errorf("a %v with %d requests is not a collective", t.Op, t.reqs)
	}
	var posts int32
	ops := p.templateOps(t)
	for i := range ops {
		op := &ops[i]
		err := checkFlags(op)
		switch k := op.Kind; {
		case err != nil:
		case k == RopWait:
			err = p.checkWait(op, t.reqs, wlo, whi)
		case k == RopSend, k == RopRecv, k == RopIsend, k == RopIrecv:
			err = p.checkP2P(r, op)
			if err == nil && (k == RopIsend || k == RopIrecv) {
				if op.Req < 0 || op.Req >= t.reqs {
					err = fmt.Errorf("request %d outside the template's [0,%d)", op.Req, t.reqs)
				}
				posts++
			}
		default:
			err = errors.New("not a round of a collective")
		}
		if err != nil {
			return 0, fmt.Errorf("op %d (%v): %v", i, op.Kind, err)
		}
	}
	if posts != t.reqs {
		return 0, fmt.Errorf("counts %d requests, its rounds post %d", t.reqs, posts)
	}
	return len(ops) - countKind(ops, RopWait), nil
}

// countKind returns how many of ops are of kind k.
func countKind(ops []Rop, k RopKind) int {
	c := 0
	for i := range ops {
		if ops[i].Kind == k {
			c++
		}
	}
	return c
}

// checkFlags rejects unknown flags, and a span on anything but a wait.
func checkFlags(op *Rop) error {
	if op.Flags&^ropSpan != 0 {
		return fmt.Errorf("unknown flags %#x", op.Flags)
	}
	if op.Flags&ropSpan != 0 && op.Kind != RopWait {
		return errors.New("a span that is not a wait")
	}
	return nil
}

// checkP2P checks a point-to-point op of rank r: its channel exists
// and has r at its end, and its payload is not negative.
func (p *Program) checkP2P(r int32, op *Rop) error {
	ch := op.Ch
	if ch < 0 || int(ch) >= len(p.chans) {
		return fmt.Errorf("channel %d outside [0,%d)", ch, len(p.chans))
	}
	e := p.chans[ch]
	own := e.dst
	if op.Kind == RopSend || op.Kind == RopIsend {
		own = e.src
	}
	if own != r {
		return fmt.Errorf("channel %d runs %d→%d, its end here is not this rank", ch, e.src, e.dst)
	}
	if op.Val < 0 {
		return fmt.Errorf("negative payload %d", op.Bytes())
	}
	return nil
}

// checkWait checks a wait's request set: ids in [0, limit), and a set
// stored in the wait arena within its extent [wlo, whi).
func (p *Program) checkWait(op *Rop, limit int32, wlo, whi int64) error {
	lo, hi := op.waitSet()
	if op.Flags&ropSpan != 0 {
		if lo < 0 || hi < lo || hi > int64(limit) {
			return fmt.Errorf("waits on requests [%d,%d) outside [0,%d)", lo, hi, limit)
		}
		return nil
	}
	if lo < wlo || hi < lo || hi > whi {
		return fmt.Errorf("wait set [%d,%d) outside the wait arena's [%d,%d)", lo, hi, wlo, whi)
	}
	for _, q := range p.waits[lo:hi] {
		if q < 0 || q >= limit {
			return fmt.Errorf("waits on request %d outside [0,%d)", q, limit)
		}
	}
	return nil
}

func opErr(r, i int, op *Rop, format string, args ...any) error {
	return fmt.Errorf("rank %d op %d (%v): %s", r, i, op.Kind, fmt.Sprintf(format, args...))
}
