package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Fuzz targets: the v3 parser must never panic or hang on arbitrary
// input, must refuse anything it does not accept with ErrBadFormat, and
// anything it accepts must either validate or fail validation
// gracefully. The seed corpus (valid encodings plus mutations) runs as
// regression tests under plain `go test`; use
// `go test -fuzz=FuzzTraceCodec ./internal/trace` to explore further.

func fuzzSeeds() [][]byte {
	var seeds [][]byte
	for s := int64(1); s <= 3; s++ {
		tr := randomTrace(rand.New(rand.NewSource(s)))
		var buf bytes.Buffer
		if err := WriteColumnsV3(&buf, tr); err == nil {
			seeds = append(seeds, buf.Bytes())
		}
	}
	seeds = append(seeds, []byte("HTRC"), []byte("HTRC\x01"), []byte{}, []byte("garbage"))
	return seeds
}

// FuzzRead drives the parse OpenMapped runs over arbitrary bytes and
// walks whatever it accepts the way a campaign would.
func FuzzRead(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := parseV3(data, false)
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("rejection %v does not wrap ErrBadFormat", err)
			}
			return
		}
		_ = SourceNumEvents(c)
		_ = SourceMeasuredTotal(c)
		_ = SourceCommFraction(c)
		_ = c.Validate() // may fail; must not panic
	})
}

// retiredSeeds are the headers of a v1 and a v2 file: magic, uvarint
// version, the inline meta + communicator blob, and two empty rank
// bodies. The parser must refuse both.
func retiredSeeds() [][]byte {
	meta := Meta{App: "old", Class: "S", Machine: "m", NumRanks: 2, RanksPerNode: 1}
	comms := NewCommTable(meta.NumRanks)
	var seeds [][]byte
	for _, version := range []byte{1, 2} {
		b := appendMetaComms(append([]byte(binaryMagic), version), meta, &comms)
		seeds = append(seeds, append(b, 0, 0))
	}
	return seeds
}

// codecSeeds builds the FuzzTraceCodec seed set deterministically: a
// valid v3 encoding of a program exercising every op family, an empty
// trace, and precise corruptions — a truncated body, a meta blob
// length that lies, a meta rank count that disagrees with the header,
// a truncated fixed header, a misaligned extent, an extent escaping the
// file, and an extent whose byte length wraps uint64. The same bytes
// are committed under testdata/fuzz/FuzzTraceCodec (TestWriteFuzzCorpus
// regenerates them) so they run under plain `go test`. The corpus also
// keeps seed-valid-v1 and seed-valid-v2, real files of the retired
// codecs, which must now be refused.
func codecSeeds() map[string][]byte {
	build := func(meta Meta) *Columns {
		b := NewBuilder(meta)
		richProgram(b)
		c, err := b.BuildColumns()
		if err != nil {
			panic(err)
		}
		return c
	}
	encode := func(c *Columns) []byte {
		var buf bytes.Buffer
		if err := WriteColumnsV3(&buf, c); err != nil {
			panic(err)
		}
		return buf.Bytes()
	}
	meta := Meta{App: "fuzzseed", Class: "S", Machine: "m", NumRanks: 4, RanksPerNode: 2, Seed: 7}
	good := encode(build(meta))
	seeds := map[string][]byte{"valid-v3": good}

	empty, err := NewBuilder(Meta{App: "empty", NumRanks: 2}).BuildColumns()
	if err != nil {
		panic(err)
	}
	seeds["empty-trace"] = encode(empty)
	seeds["truncated-block"] = append([]byte{}, good[:len(good)*2/3]...)

	// The header records the meta blob's length, and the layout places
	// the extent table right after it; a lying length moves both.
	mut := func(edit func(b []byte)) []byte {
		b := append([]byte{}, good...)
		edit(b)
		return b
	}
	seeds["bad-length-prefix"] = mut(func(b []byte) {
		n := binary.LittleEndian.Uint64(b[24:32])
		binary.LittleEndian.PutUint64(b[24:32], n+v3Align)
	})

	// WriteColumnsV3 records len(c.ranks) in the header but the meta
	// carries Meta.NumRanks; bumping the meta after the build makes the
	// two disagree.
	cm := build(meta)
	cm.Meta.NumRanks = 6
	seeds["rank-count-mismatch"] = encode(cm)

	// The corruption families the parser must reject before forming any
	// slice: a header cut short, an extent knocked off 8-byte alignment,
	// and an extent whose count × element size escapes the file (both
	// the straightforward past-EOF case and a uint64 wraparound).
	seeds["v3-truncated-header"] = append([]byte{}, good[:v3HeaderSize-17]...)
	extOff := binary.LittleEndian.Uint64(good[32:40])
	seeds["v3-misaligned-extent"] = mut(func(b []byte) {
		off := binary.LittleEndian.Uint64(b[extOff+24:])
		binary.LittleEndian.PutUint64(b[extOff+24:], off+4)
	})
	seeds["v3-extent-overflow"] = mut(func(b []byte) {
		binary.LittleEndian.PutUint64(b[extOff+24+8:], uint64(len(b))-4)
	})
	seeds["v3-extent-count-wrap"] = mut(func(b []byte) {
		// reqArena length of 2^62 makes count × 4 wrap around uint64;
		// only the explicit division check catches it.
		binary.LittleEndian.PutUint64(b[extOff+8:], 1<<62)
	})
	return seeds
}

// FuzzTraceCodec holds the v3 parser's two modes together: on any
// input, alias mode and copy mode must agree on acceptance, refuse with
// ErrBadFormat (a retired codec version always among the refused),
// decode the same events when they accept, and an encode → decode cycle
// of what they accepted must be lossless.
func FuzzTraceCodec(f *testing.F) {
	for _, s := range codecSeeds() {
		f.Add(s)
	}
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	for _, s := range retiredSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		aligned := append(make([]byte, 0, len(data)), data...)
		ca, aErr := parseV3(aligned, v3Aliasable(aligned))
		cc, cErr := parseV3(data, false)
		if (aErr == nil) != (cErr == nil) {
			t.Fatalf("modes disagree: alias err %v, copy err %v", aErr, cErr)
		}
		if cErr != nil {
			if !errors.Is(aErr, ErrBadFormat) || !errors.Is(cErr, ErrBadFormat) {
				t.Fatalf("rejections do not wrap ErrBadFormat: alias %v, copy %v", aErr, cErr)
			}
			return
		}
		if len(data) > len(binaryMagic) && data[len(binaryMagic)] != binaryVersionV3 {
			t.Fatalf("accepted codec version %d", data[len(binaryMagic)])
		}
		if ca.Meta != cc.Meta || !commTablesEqual(&ca.Comms, &cc.Comms) {
			t.Fatal("meta or comms differ between modes")
		}
		requireSameEvents(t, cc, ca)

		var buf bytes.Buffer
		if err := WriteColumnsV3(&buf, cc); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		c2, err := parseV3(buf.Bytes(), false)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if c2.Meta != cc.Meta || !commTablesEqual(&c2.Comms, &cc.Comms) {
			t.Fatal("roundtrip changed meta or comms")
		}
		requireSameEvents(t, cc, c2)
	})
}

// TestWriteFuzzCorpus regenerates the committed FuzzTraceCodec seed
// corpus (run with WRITE_CORPUS=1 after changing the codec or seeds).
// It leaves seed-valid-v1 and seed-valid-v2 alone: no encoder for
// those formats exists any more.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_CORPUS") == "" {
		t.Skip("set WRITE_CORPUS=1 to rewrite testdata/fuzz/FuzzTraceCodec")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzTraceCodec")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range codecSeeds() {
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func FuzzReadDUMPIASCII(f *testing.F) {
	for _, name := range []string{"rank0.txt", "rank1.txt"} {
		b, err := os.ReadFile(filepath.Join("testdata", "dumpi", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	f.Add("MPI_Send entering at walltime 0.1.\n  int dest=0\nMPI_Send returning at walltime 0.2.\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadDUMPIASCII(Meta{App: "fuzz", NumRanks: 1},
			[]io.Reader{strings.NewReader(data)})
		if err != nil {
			return
		}
		_ = tr.NumEvents()
	})
}
