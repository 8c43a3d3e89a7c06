package mpisim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"unsafe"

	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/trace"
)

// imageProgram lowers a small trace exercising every op kind, blocking
// and nonblocking p2p, and several collectives (so both trace-owned and
// synthesized requests and wait sets appear).
func imageProgram(t testing.TB) *Program {
	b := newTB(4)
	for r := 0; r < 4; r++ {
		b.compute(r, simtime.Time(10+r)*simtime.Microsecond)
		rq := b.irecv(r, (r+3)%4, 1, 4096)
		sq := b.isend(r, (r+1)%4, 1, 4096)
		b.waitall(r, rq, sq)
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
// wait arena, and a channel id at numChans. The same bytes are committed
// under testdata/fuzz/FuzzProgramImage (TestWriteProgramCorpus
// regenerates them) so they run under plain `go test`.
func programSeeds(t testing.TB) map[string][]byte {
	p := imageProgram(t)
	good := imageOf(t, p)
	le := binary.LittleEndian
	opsOff := le.Uint64(good[48+8*4:])
	// patch edits the first op of the given kind in a copy of good.
	patch := func(kind RopKind, edit func(op []byte)) []byte {
		b := append([]byte{}, good...)
		for i := range p.arena {
			if p.arena[i].Kind == kind {
				edit(b[opsOff+uint64(i*ropSize):][:ropSize])
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
		"wait-set-out-of-range": patch(RopWait, func(op []byte) {
			le.PutUint32(op[unsafe.Offsetof(Rop{}.WaitOff):], uint32(len(p.waits)))
		}),
		"channel-out-of-range": patch(RopIsend, func(op []byte) {
			le.PutUint32(op[unsafe.Offsetof(Rop{}.Ch):], uint32(p.numChans))
		}),
	}
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
			for i := range p.Rank(r) {
				_ = p.Waits(&p.Rank(r)[i])
			}
		}
		again, err := OpenProgram(imageOf(t, p))
		if err != nil || !reflect.DeepEqual(again, p) {
			t.Fatalf("re-encoded program differs (err %v)", err)
		}
	})
}

// TestProgramSeedsRejected checks each corrupt seed fails for the
// reason it was built for, so the corpus keeps covering every check.
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
