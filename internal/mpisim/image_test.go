package mpisim

import (
	"bytes"
	"encoding/binary"
	"errors"
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
// synthesized requests appear, and wait sets both spans and stored in
// the wait arena).
func imageProgram(t testing.TB) *Program {
	b := newTB(4)
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
// wait arena, a span past the rank's requests, a channel id at the
// channel count, and a send on a
// channel that starts at another rank. The same bytes are committed
// under testdata/fuzz/FuzzProgramImage (TestWriteProgramCorpus
// regenerates them) so they run under plain `go test`.
func programSeeds(t testing.TB) map[string][]byte {
	p := imageProgram(t)
	good := imageOf(t, p)
	le := binary.LittleEndian
	opsOff := le.Uint64(good[48+8*4:])
	// patch edits the first op of the given kind and span flag in a
	// copy of good, passing the rank it belongs to.
	patch := func(kind RopKind, span bool, edit func(rank int, op []byte)) []byte {
		b := append([]byte{}, good...)
		for i := range p.arena {
			if p.arena[i].Kind == kind && (p.arena[i].Flags&ropSpan != 0) == span {
				rank := 0
				for p.opOff[rank+1] <= int64(i) {
					rank++
				}
				edit(rank, b[opsOff+uint64(i*ropSize):][:ropSize])
				return b
			}
		}
		t.Fatalf("no %v op to patch", kind)
		return nil
	}
	return map[string][]byte{
		"valid":     good,
		"truncated": good[:len(good)/2],
		"misaligned-extent": func() []byte {
			b := append([]byte{}, good...)
			le.PutUint64(b[48+8*4:], opsOff+4)
			return b
		}(),
		"wait-set-out-of-range": patch(RopWait, false, func(_ int, op []byte) {
			le.PutUint32(op[unsafe.Offsetof(Rop{}.Req):], uint32(len(p.waits)))
		}),
		"span-out-of-range": patch(RopWait, true, func(rank int, op []byte) {
			le.PutUint32(op[unsafe.Offsetof(Rop{}.Req):], uint32(p.reqCount[rank]))
		}),
		"channel-out-of-range": patch(RopIsend, false, func(_ int, op []byte) {
			le.PutUint32(op[unsafe.Offsetof(Rop{}.Ch):], uint32(len(p.chans)))
		}),
		"send-on-another-ranks-channel": patch(RopSend, false, func(rank int, op []byte) {
			for c, e := range p.chans {
				if e.src != int32(rank) {
					le.PutUint32(op[unsafe.Offsetof(Rop{}.Ch):], uint32(c))
					return
				}
			}
			t.Fatalf("every channel starts at rank %d", rank)
		}),
	}
}

// seedRejections names the reason each corrupt seed must be rejected
// for, as a fragment of OpenProgram's error.
var seedRejections = map[string]string{
	"truncated":                     "image holds",
	"misaligned-extent":             "misaligned",
	"wait-set-out-of-range":         "wait set",
	"span-out-of-range":             "waits on requests",
	"channel-out-of-range":          "outside [0,",
	"send-on-another-ranks-channel": "its end here is not this rank",
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
		for r := 0; r < p.NumRanks(); r++ {
			for i, op := range p.Rank(r) {
				switch op.Kind {
				case RopWait:
					_ = p.Waits(&p.Rank(r)[i])
				case RopSend, RopIsend, RopRecv, RopIrecv:
					_ = p.peer(&p.Rank(r)[i])
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
		} else if want := seedRejections[name]; !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err %v, want it rejected for %q", name, err, want)
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
