package trace

import (
	"errors"
	"testing"

	"hpctradeoff/internal/simtime"
)

// richProgram drives b through every op family: compute, blocking and
// nonblocking point-to-point, wait and waitall, rooted and unrooted
// collectives, and an alltoallv on a sub-communicator.
func richProgram(b *Builder) {
	c1 := b.AddComm([]int32{0, 2}) // even ranks
	for r := 0; r < 4; r++ {
		b.Compute(r, simtime.Time(10+r))
	}
	q0 := b.Isend(0, 1, 0, 1024, CommWorld)
	q1 := b.Irecv(1, 0, 0, 1024, CommWorld)
	b.Wait(0, q0)
	b.Wait(1, q1)

	b.Send(2, 3, 1, 256, CommWorld)
	b.Recv(3, 2, 1, 256, CommWorld)

	b.Isend(0, 3, 2, 64, CommWorld)
	b.Isend(0, 3, 3, 64, CommWorld)
	b.Irecv(3, 0, 2, 64, CommWorld)
	b.Irecv(3, 0, 3, 64, CommWorld)
	waitOpen(b, 0)
	waitOpen(b, 3)

	for r := 0; r < 4; r++ {
		b.Collective(r, OpAllreduce, CommWorld, 0, 64)
		b.Collective(r, OpBcast, CommWorld, 1, 32)
	}
	for _, r := range []int{0, 2} {
		b.Alltoallv(r, c1, []int64{8, 16})
		b.Collective(r, OpReduce, c1, 2, 128)
	}
	for r := 0; r < 4; r++ {
		b.Compute(r, 5)
	}
}

func richColumns(t *testing.T) *Columns {
	t.Helper()
	b := NewBuilder(Meta{App: "rich", Class: "A", Machine: "hopper", NumRanks: 4, RanksPerNode: 2})
	richProgram(b)
	c, err := b.BuildColumns()
	if err != nil {
		t.Fatalf("BuildColumns: %v", err)
	}
	return c
}

// eventsEqual compares two events field-for-field, treating nil and
// empty payload slices as equal (aliasing arenas never yields nil-vs-
// empty differences that matter to consumers).
func eventsEqual(a, b *Event) bool {
	if a.Op != b.Op || a.Entry != b.Entry || a.Exit != b.Exit ||
		a.Peer != b.Peer || a.Tag != b.Tag || a.Root != b.Root ||
		a.Req != b.Req || a.Comm != b.Comm || a.Bytes != b.Bytes {
		return false
	}
	if len(a.Reqs) != len(b.Reqs) || len(a.SendBytes) != len(b.SendBytes) {
		return false
	}
	for i := range a.Reqs {
		if a.Reqs[i] != b.Reqs[i] {
			return false
		}
	}
	for i := range a.SendBytes {
		if a.SendBytes[i] != b.SendBytes[i] {
			return false
		}
	}
	return true
}

// requireSameEvents fails unless got holds want's events, rank by rank.
func requireSameEvents(t *testing.T, want, got Source) {
	t.Helper()
	n := want.TraceMeta().NumRanks
	if got.TraceMeta().NumRanks != n {
		t.Fatalf("NumRanks = %d, want %d", got.TraceMeta().NumRanks, n)
	}
	var w, g Event
	for r := 0; r < n; r++ {
		if got.RankLen(r) != want.RankLen(r) {
			t.Fatalf("rank %d: RankLen = %d, want %d", r, got.RankLen(r), want.RankLen(r))
		}
		for i := 0; i < want.RankLen(r); i++ {
			want.EventAt(r, i, &w)
			got.EventAt(r, i, &g)
			if !eventsEqual(&g, &w) {
				t.Fatalf("rank %d event %d: got %+v, want %+v", r, i, g, w)
			}
		}
	}
}

func TestSetEventTimes(t *testing.T) {
	src := richColumns(t)
	src.SetEventTimes(1, 0, 777, 888)
	var e Event
	src.EventAt(1, 0, &e)
	if e.Entry != 777 || e.Exit != 888 {
		t.Errorf("SetEventTimes gave [%v,%v], want [777,888]", e.Entry, e.Exit)
	}
}

func TestColumnsValidate(t *testing.T) {
	cols := richColumns(t)
	if err := cols.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Corrupt one peer and confirm validation still bites on columns.
	for i, op := range cols.ranks[0].op {
		if op.IsP2P() {
			cols.ranks[0].peer[i] = 99
			break
		}
	}
	if err := cols.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range peer")
	}
}

// TestReadColumnsRejectsGarbage cuts and flips bytes of a valid v3
// image: every truncation must fail with ErrBadFormat, and no
// single-byte corruption may panic either parse mode.
func TestReadColumnsRejectsGarbage(t *testing.T) {
	good := encodeV3(t, richColumns(t))
	for cut := 0; cut < len(good); cut += 7 {
		if _, err := parseV3(good[:cut], false); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("truncation at %d: err = %v, want ErrBadFormat", cut, err)
		}
	}
	for i := len(binaryMagic); i < len(good); i += 3 {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0xff
		_, _ = parseV3(bad, false)
		_, _ = parseV3(bad, v3Aliasable(bad))
	}
}

// TestFootprintColumnsSmaller checks FootprintBytes against the column
// widths: copy-decoded columns have cap == len, so the footprint is
// exactly 53 bytes per event plus the arenas, and smaller than the v3
// image, which also carries the header, extents and padding.
func TestFootprintColumnsSmaller(t *testing.T) {
	img := encodeV3(t, richColumns(t))
	cols, err := parseV3(img, false)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(53 * cols.NumEvents())
	for r := range cols.ranks {
		want += int64(4*len(cols.ranks[r].reqArena) + 8*len(cols.ranks[r].sbArena))
	}
	if got := cols.FootprintBytes(); got != want {
		t.Fatalf("FootprintBytes = %d, want %d", got, want)
	}
	if want >= int64(len(img)) {
		t.Errorf("columnar footprint %d not smaller than the %d-byte v3 image", want, len(img))
	}
}
