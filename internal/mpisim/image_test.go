package mpisim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/trace"
)

// imageProgram lowers a small trace exercising every op kind, blocking
// and nonblocking p2p, and several collectives (so both trace-owned and
// template requests appear, wait sets both spans and stored in the wait
// arena, templates run by more than one instance, and an empty
// template for a single-member communicator).
func imageProgram(t testing.TB) *Program {
	b := newTB(4)
	self := make([]trace.CommID, 4)
	for r := range self {
		self[r] = b.tr.Comms.Add([]int32{int32(r)})
	}
	for r := 0; r < 4; r++ {
		b.compute(r, simtime.Time(10+r)*simtime.Microsecond)
		rq := b.irecv(r, (r+3)%4, 1, 4096)
		sq := b.isend(r, (r+1)%4, 1, 4096)
		b.waitall(r, sq, rq) // descending: stored in the arena
		if r%2 == 0 {
			b.send(r, r+1, 2, 64)
		} else {
			b.recv(r, r-1, 2, 64)
		}
		b.coll(r, trace.OpAllreduce, trace.CommWorld, 0, 64)
		b.coll(r, trace.OpAlltoall, trace.CommWorld, 0, 1024)
		b.coll(r, trace.OpAllreduce, trace.CommWorld, 0, 64)
		b.coll(r, trace.OpBarrier, self[r], r, 0)
	}
	tr := b.tr
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	prog, err := Lower(tr)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func imageOf(t testing.TB, p *Program) []byte {
	var buf bytes.Buffer
	if err := p.WriteImage(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestImageRoundTrip opens a written image, aligned and not, into the
// program it was written from.
func TestImageRoundTrip(t *testing.T) {
	want := imageProgram(t)
	img := imageOf(t, want)
	got, err := OpenProgram(img)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("opened image differs from the program it was written from")
	}
	shifted := append(make([]byte, 1, len(img)+1), img...)[1:]
	if got, err = OpenProgram(shifted); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("misaligned buffer: err %v", err)
	}
}

// programSeeds is the FuzzProgramImage seed set: a valid image and one
// precise corruption per family OpenProgram must reject — a truncated
// image, a section knocked off alignment, a wait set pointing past the
// wait arena, a span past its template's requests, a channel id at the
// channel count, a send on a channel that starts at another rank, a
// template id at the rank's template count, a template's request at
// the template's count, an instance whose requests run past the rank's,
// a template round on a channel that does not touch the rank that
// owns the template, and a template op extent whose end overflows. The
// same bytes are committed under testdata/fuzz/FuzzProgramImage
// (TestWriteProgramCorpus regenerates them) so they run under plain
// `go test`.
func programSeeds(t testing.TB) map[string][]byte {
	p := imageProgram(t)
	good := imageOf(t, p)
	le := binary.LittleEndian
	opsAt := le.Uint64(good[offsetsAt+8*3:])
	topsAt := le.Uint64(good[offsetsAt+8*8:])
	// patch edits, in a copy of good, the first op of the given kind and
	// span flag among the ranks' own ops, or (round) among the
	// templates' rounds, passing the rank that owns it and, for a round,
	// its template.
	patch := func(round bool, kind RopKind, span bool, edit func(rank int, tm *collTemplate, op []byte)) []byte {
		b := append([]byte{}, good...)
		ops, at := p.arena, opsAt
		if round {
			ops, at = p.tarena, topsAt
		}
		for i := range ops {
			if ops[i].Kind != kind || ops[i].Flags&ropSpan != 0 != span {
				continue
			}
			rank, tm := 0, (*collTemplate)(nil)
			if round {
				ti := 0
				for tm = &p.tmpls[0]; int64(i) >= tm.opOff+int64(tm.opLen); tm = &p.tmpls[ti] {
					ti++
				}
				for p.tmplOff[rank+1] <= int64(ti) {
					rank++
				}
			} else {
				for p.opOff[rank+1] <= int64(i) {
					rank++
				}
			}
			edit(rank, tm, b[at+uint64(i*ropSize):][:ropSize])
			return b
		}
		t.Fatalf("no %v op to patch", kind)
		return nil
	}
	ch, req := unsafe.Offsetof(Rop{}.Ch), unsafe.Offsetof(Rop{}.Req)
	put := func(op []byte, field uintptr, v int) { le.PutUint32(op[field:], uint32(v)) }
	// otherChannel returns a channel that does not start at rank.
	otherChannel := func(rank int) int {
		for c, e := range p.chans {
			if e.src != int32(rank) && e.dst != int32(rank) {
				return c
			}
		}
		t.Fatalf("every channel touches rank %d", rank)
		return 0
	}
	return map[string][]byte{
		"valid":     good,
		"truncated": good[:len(good)/2],
		"misaligned-extent": func() []byte {
			b := append([]byte{}, good...)
			le.PutUint64(b[offsetsAt+8*3:], opsAt+4)
			return b
		}(),
		"wait-set-out-of-range": patch(false, RopWait, false, func(_ int, _ *collTemplate, op []byte) {
			put(op, req, len(p.waits))
		}),
		"span-out-of-range": patch(true, RopWait, true, func(_ int, tm *collTemplate, op []byte) {
			put(op, req, int(tm.reqs))
		}),
		"channel-out-of-range": patch(false, RopIsend, false, func(_ int, _ *collTemplate, op []byte) {
			put(op, ch, len(p.chans))
		}),
		"send-on-another-ranks-channel": patch(false, RopSend, false, func(rank int, _ *collTemplate, op []byte) {
			put(op, ch, otherChannel(rank))
		}),
		"template-out-of-range": patch(false, RopCollective, false, func(rank int, _ *collTemplate, op []byte) {
			put(op, ch, int(p.tmplOff[rank+1]-p.tmplOff[rank]))
		}),
		"template-request-out-of-range": patch(true, RopIsend, false, func(_ int, tm *collTemplate, op []byte) {
			put(op, req, int(tm.reqs))
		}),
		"base-past-requests": patch(false, RopCollective, false, func(rank int, _ *collTemplate, op []byte) {
			put(op, req, int(p.reqCount[rank]))
		}),
		"template-channel-off-rank": patch(true, RopIsend, false, func(rank int, _ *collTemplate, op []byte) {
			put(op, ch, otherChannel(rank))
		}),
		"template-extent-overflow": func() []byte {
			b := append([]byte{}, good...)
			at := le.Uint64(good[offsetsAt+8*7:]) + uint64(unsafe.Offsetof(collTemplate{}.opOff))
			le.PutUint64(b[at:], math.MaxInt64-1)
			return b
		}(),
	}
}

// seedRejections names the reason each corrupt seed must be rejected
// for, as fragments of OpenProgram's error.
var seedRejections = map[string][]string{
	"truncated":                     {"image holds"},
	"misaligned-extent":             {"misaligned"},
	"wait-set-out-of-range":         {"wait set"},
	"span-out-of-range":             {"template", "waits on requests"},
	"channel-out-of-range":          {"outside [0,"},
	"send-on-another-ranks-channel": {"its end here is not this rank"},
	"template-out-of-range":         {"no such template"},
	"template-request-out-of-range": {"outside the template's"},
	"base-past-requests":            {"outside the rank's collective requests"},
	"template-channel-off-rank":     {"template", "its end here is not this rank"},
	"template-extent-overflow":      {"template", "op extent"},
}

// FuzzProgramImage holds OpenProgram to its contract on any input:
// accept a valid image or return an error wrapping ErrBadProgram,
// never panic. An accepted program must be walkable the way a replay
// walks it, and write back out to an image that opens to the same
// program.
func FuzzProgramImage(f *testing.F) {
	for _, s := range programSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := OpenProgram(data)
		if err != nil {
			if !errors.Is(err, ErrBadProgram) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		walk := func(ops []Rop) {
			for i := range ops {
				switch op := &ops[i]; op.Kind {
				case RopWait:
					_ = p.Waits(op)
				case RopSend, RopIsend, RopRecv, RopIrecv:
					_ = p.peer(op)
				}
			}
		}
		for r := 0; r < p.NumRanks(); r++ {
			for i, op := range p.Rank(r) {
				walk(p.Rank(r)[i : i+1])
				if op.Kind == RopCollective {
					_ = p.Collective(r, &op)
					walk(p.templateOps(p.template(int32(r), &op)))
				}
			}
		}
		again, err := OpenProgram(imageOf(t, p))
		if err != nil || !reflect.DeepEqual(again, p) {
			t.Fatalf("re-encoded program differs (err %v)", err)
		}
	})
}

// TestProgramSeedsRejected checks each corrupt seed fails for the
// reason it was built for (seedRejections), so the corpus keeps covering every check.
func TestProgramSeedsRejected(t *testing.T) {
	for name, b := range programSeeds(t) {
		_, err := OpenProgram(b)
		if name == "valid" {
			if err != nil {
				t.Errorf("valid seed rejected: %v", err)
			}
			continue
		}
		if !errors.Is(err, ErrBadProgram) {
			t.Errorf("%s: err %v, want ErrBadProgram", name, err)
		} else {
			for _, want := range seedRejections[name] {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s: err %v, want it rejected for %q", name, err, want)
				}
			}
		}
	}
}

// TestWriteProgramCorpus regenerates the committed FuzzProgramImage
// seed corpus (run with WRITE_CORPUS=1 after changing the image format
// or the seeds).
func TestWriteProgramCorpus(t *testing.T) {
	if os.Getenv("WRITE_CORPUS") == "" {
		t.Skip("set WRITE_CORPUS=1 to rewrite testdata/fuzz/FuzzProgramImage")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzProgramImage")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range programSeeds(t) {
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
