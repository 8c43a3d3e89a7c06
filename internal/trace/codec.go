package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Binary trace format ("HTRC"). The only codec is version 3
// (codec_v3.go): a fixed header, the meta + communicator blob encoded
// here, and the Columns arrays laid out raw so a file maps in with
// zero decode. Versions 1 and 2 (varint event and column streams) are
// retired; their files are refused with ErrBadFormat and must be
// regenerated with tracegen or dumpiconv.

const (
	binaryMagic = "HTRC"

	maxRanks      = 1 << 24
	maxRankEvents = 1 << 30
)

// ErrBadFormat reports a malformed, truncated or retired binary trace.
var ErrBadFormat = errors.New("trace: bad binary format")

// appendMetaComms appends the varint-framed meta and communicator
// table: the three identity strings, rank counts, seed, capability
// flags, then each communicator's delta-coded member list.
func appendMetaComms(b []byte, meta Meta, comms *CommTable) []byte {
	putS := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	putS(meta.App)
	putS(meta.Class)
	putS(meta.Machine)
	b = binary.AppendUvarint(b, uint64(meta.NumRanks))
	b = binary.AppendUvarint(b, uint64(meta.RanksPerNode))
	b = binary.AppendVarint(b, meta.Seed)
	var flags byte
	if meta.UsesCommSplit {
		flags |= 1
	}
	if meta.UsesThreadMultiple {
		flags |= 2
	}
	b = append(b, flags)

	b = binary.AppendUvarint(b, uint64(comms.Len()))
	for c := 0; c < comms.Len(); c++ {
		members := comms.Members(CommID(c))
		b = binary.AppendUvarint(b, uint64(len(members)))
		prev := int32(0)
		for _, m := range members {
			b = binary.AppendVarint(b, int64(m-prev)) // delta; first is absolute from 0
			prev = m
		}
	}
	return b
}

// parseMetaComms decodes a blob written by appendMetaComms, which must
// consume it exactly.
func parseMetaComms(blob []byte) (Meta, CommTable, error) {
	var meta Meta
	var ct CommTable
	d := &metaDec{b: blob}
	meta.App = d.str()
	meta.Class = d.str()
	meta.Machine = d.str()
	meta.NumRanks = int(d.uvarint())
	meta.RanksPerNode = int(d.uvarint())
	meta.Seed = d.varint()
	flags := d.byte()
	meta.UsesCommSplit = flags&1 != 0
	meta.UsesThreadMultiple = flags&2 != 0
	if d.err != nil {
		return meta, ct, d.fail("meta")
	}
	if meta.NumRanks < 0 || meta.NumRanks > maxRanks {
		return meta, ct, fmt.Errorf("%w: implausible rank count %d", ErrBadFormat, meta.NumRanks)
	}

	ct = NewCommTable(meta.NumRanks)
	nComms := int(d.uvarint())
	if d.err != nil || nComms < 1 || nComms > maxRanks {
		return meta, ct, d.fail("comm table")
	}
	for c := 0; c < nComms; c++ {
		n := int(d.uvarint())
		if d.err != nil || n < 0 || n > meta.NumRanks {
			return meta, ct, d.fail("comm members")
		}
		members := make([]int32, n)
		prev := int32(0)
		for i := range members {
			prev += int32(d.varint())
			members[i] = prev
		}
		if c > 0 { // world is implicit
			ct.Add(members)
		}
	}
	if d.err != nil {
		return meta, ct, d.fail("comm table")
	}
	if len(d.b) != 0 {
		return meta, ct, fmt.Errorf("%w: meta blob has %d trailing bytes", ErrBadFormat, len(d.b))
	}
	return meta, ct, nil
}

// metaDec decodes varints from the in-memory meta blob; the first
// failure sticks and later reads return zero values.
type metaDec struct {
	b   []byte
	err error
}

func (d *metaDec) fail(what string) error {
	if d.err == nil {
		d.err = errors.New("out of range")
	}
	return fmt.Errorf("%w: %s: %v", ErrBadFormat, what, d.err)
}

func (d *metaDec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = errors.New("truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *metaDec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.err = errors.New("truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *metaDec) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.err = errors.New("truncated")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *metaDec) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.err = fmt.Errorf("string length %d exceeds blob", n)
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}
