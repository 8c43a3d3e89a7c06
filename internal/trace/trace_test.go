package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hpctradeoff/internal/simtime"
)

// columnsOf builds an unvalidated trace from hand-written per-rank
// event rows, so tests can construct well-formed and deliberately
// broken traces alike.
func columnsOf(meta Meta, ranks ...[]Event) *Columns {
	meta.NumRanks = len(ranks)
	c := NewColumns(meta)
	for r, evs := range ranks {
		for i := range evs {
			c.Append(r, &evs[i])
		}
	}
	return c
}

// rankEvents gathers rank r's events; payload slices alias the trace.
func rankEvents(src Source, r int) []Event {
	evs := make([]Event, src.RankLen(r))
	for i := range evs {
		src.EventAt(r, i, &evs[i])
	}
	return evs
}

func mkP2PRows() [][]Event {
	return [][]Event{{
		{Op: OpCompute, Entry: 0, Exit: 100, Peer: NoPeer, Req: NoReq},
		{Op: OpSend, Entry: 100, Exit: 150, Peer: 1, Tag: 7, Bytes: 4096, Comm: CommWorld, Req: NoReq},
	}, {
		{Op: OpRecv, Entry: 0, Exit: 160, Peer: 0, Tag: 7, Bytes: 4096, Comm: CommWorld, Req: NoReq},
	}}
}

func mkP2PTrace(rows [][]Event) *Columns {
	return columnsOf(Meta{App: "unit", Class: "A", Machine: "edison", RanksPerNode: 1}, rows...)
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	tr := mkP2PTrace(mkP2PRows())
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
}

func TestMeasuredTotalsAndCommFraction(t *testing.T) {
	tr := mkP2PTrace(mkP2PRows())
	if got := SourceMeasuredTotal(tr); got != 160 {
		t.Errorf("MeasuredTotal = %v, want 160", got)
	}
	// Comm time: rank0 send 50 + rank1 recv 160, averaged over 2 ranks.
	if got := SourceMeasuredComm(tr); got != 105 {
		t.Errorf("MeasuredComm = %v, want 105", got)
	}
	want := 105.0 / 160.0
	if got := SourceCommFraction(tr); got != want {
		t.Errorf("CommFraction = %v, want %v", got, want)
	}
	if got := SourceNumEvents(tr); got != 3 || tr.NumEvents() != 3 {
		t.Errorf("NumEvents = %d/%d, want 3", got, tr.NumEvents())
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func([][]Event) [][]Event
	}{
		{"exit before entry", func(rs [][]Event) [][]Event { rs[0][0].Exit = -1; return rs }},
		{"overlapping events", func(rs [][]Event) [][]Event { rs[0][1].Entry = 50; return rs }},
		{"peer out of range", func(rs [][]Event) [][]Event { rs[0][1].Peer = 9; return rs }},
		{"self message", func(rs [][]Event) [][]Event { rs[0][1].Peer = 0; return rs }},
		{"negative bytes", func(rs [][]Event) [][]Event { rs[0][1].Bytes = -1; return rs }},
		{"unmatched send", func(rs [][]Event) [][]Event { rs[1] = rs[1][:0]; return rs }},
		{"bytes mismatch", func(rs [][]Event) [][]Event { rs[1][0].Bytes = 1; return rs }},
		{"tag mismatch", func(rs [][]Event) [][]Event { rs[1][0].Tag = 8; return rs }},
		{"bad comm", func(rs [][]Event) [][]Event { rs[0][1].Comm = 4; return rs }},
		{"bad op", func(rs [][]Event) [][]Event { rs[0][0].Op = numOps; return rs }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := mkP2PTrace(tc.mutate(mkP2PRows()))
			if err := tr.Validate(); err == nil {
				t.Fatal("Validate() = nil, want error")
			}
		})
	}
}

func TestValidateWaitSemantics(t *testing.T) {
	meta := Meta{App: "unit"}
	tr := columnsOf(meta, []Event{
		{Op: OpIsend, Entry: 0, Exit: 1, Peer: 1, Tag: 0, Bytes: 8, Comm: CommWorld, Req: 0},
		{Op: OpWait, Entry: 1, Exit: 2, Peer: NoPeer, Req: 0},
	}, []Event{
		{Op: OpIrecv, Entry: 0, Exit: 1, Peer: 0, Tag: 0, Bytes: 8, Comm: CommWorld, Req: 5},
		{Op: OpWaitall, Entry: 1, Exit: 2, Peer: NoPeer, Req: NoReq, Reqs: []int32{5}},
	})
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}

	t.Run("wait on unknown request", func(t *testing.T) {
		rows := mkP2PRows()
		rows[0] = append(rows[0], Event{Op: OpWait, Entry: 150, Exit: 151, Peer: NoPeer, Req: 3})
		if err := mkP2PTrace(rows).Validate(); err == nil {
			t.Fatal("want error for wait on unknown request")
		}
	})
	t.Run("dangling request", func(t *testing.T) {
		bad := columnsOf(meta, []Event{
			{Op: OpIsend, Entry: 0, Exit: 1, Peer: 1, Tag: 0, Bytes: 8, Comm: CommWorld, Req: 0},
		}, []Event{
			{Op: OpRecv, Entry: 0, Exit: 1, Peer: 0, Tag: 0, Bytes: 8, Comm: CommWorld, Req: NoReq},
		})
		if err := bad.Validate(); err == nil {
			t.Fatal("want error for request never completed")
		}
	})
	t.Run("request reuse while pending", func(t *testing.T) {
		bad := columnsOf(meta, []Event{
			{Op: OpIsend, Entry: 0, Exit: 1, Peer: 1, Tag: 0, Bytes: 8, Comm: CommWorld, Req: 0},
			{Op: OpIsend, Entry: 1, Exit: 2, Peer: 1, Tag: 1, Bytes: 8, Comm: CommWorld, Req: 0},
			{Op: OpWaitall, Entry: 2, Exit: 3, Peer: NoPeer, Req: NoReq, Reqs: []int32{0}},
		}, []Event{
			{Op: OpRecv, Entry: 0, Exit: 1, Peer: 0, Tag: 0, Bytes: 8, Comm: CommWorld, Req: NoReq},
			{Op: OpRecv, Entry: 1, Exit: 2, Peer: 0, Tag: 1, Bytes: 8, Comm: CommWorld, Req: NoReq},
		})
		if err := bad.Validate(); err == nil {
			t.Fatal("want error for request reuse")
		}
	})
}

func TestValidateCollectiveConsistency(t *testing.T) {
	rows := func() [][]Event {
		rs := make([][]Event, 3)
		for r := range rs {
			rs[r] = []Event{
				{Op: OpAllreduce, Entry: 0, Exit: 10, Peer: NoPeer, Req: NoReq, Comm: CommWorld, Bytes: 64},
				{Op: OpBcast, Entry: 10, Exit: 20, Peer: NoPeer, Req: NoReq, Comm: CommWorld, Root: 1, Bytes: 32},
			}
		}
		return rs
	}
	mk := func(rs [][]Event) *Columns { return columnsOf(Meta{App: "unit"}, rs...) }
	if err := mk(rows()).Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
	t.Run("missing member call", func(t *testing.T) {
		rs := rows()
		rs[2] = rs[2][:1]
		if err := mk(rs).Validate(); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("parameter mismatch", func(t *testing.T) {
		rs := rows()
		rs[2][1].Root = 0
		if err := mk(rs).Validate(); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("root outside comm", func(t *testing.T) {
		rs := rows()
		for r := range rs {
			rs[r][1].Root = 7
		}
		if err := mk(rs).Validate(); err == nil {
			t.Fatal("want error")
		}
	})
}

func TestCommTable(t *testing.T) {
	ct := NewCommTable(8)
	if ct.Size(CommWorld) != 8 {
		t.Fatalf("world size = %d, want 8", ct.Size(CommWorld))
	}
	id := ct.Add([]int32{5, 1, 3, 3})
	if got := ct.Members(id); !reflect.DeepEqual(got, []int32{1, 3, 5}) {
		t.Errorf("Members = %v, want [1 3 5]", got)
	}
	if got := ct.Position(id, 3); got != 1 {
		t.Errorf("Position(3) = %d, want 1", got)
	}
	if got := ct.Position(id, 2); got != -1 {
		t.Errorf("Position(2) = %d, want -1", got)
	}
	if !ct.Contains(CommWorld, 7) || ct.Contains(id, 0) {
		t.Error("Contains gave wrong membership")
	}
	// Adding after a Position call must invalidate the cache correctly.
	id2 := ct.Add([]int32{0, 2})
	if got := ct.Position(id2, 2); got != 1 {
		t.Errorf("Position on comm added after cache = %d, want 1", got)
	}
}

// randomTrace builds a structurally valid pseudo-random trace for
// round-trip testing, row by row rather than through the Builder.
func randomTrace(rng *rand.Rand) *Columns {
	n := 2 + rng.Intn(6)
	tr := NewColumns(Meta{
		App: "rand", Class: "Q", Machine: "hopper",
		NumRanks: n, RanksPerNode: 1 + rng.Intn(4),
		Seed:          rng.Int63(),
		UsesCommSplit: rng.Intn(2) == 0,
	})
	if tr.Meta.UsesCommSplit {
		members := []int32{}
		for r := 0; r < n; r += 2 {
			members = append(members, int32(r))
		}
		if len(members) >= 2 {
			tr.Comms.Add(members)
		}
	}
	clock := make([]simtime.Time, n)
	push := func(r int, e Event) {
		e.Entry = clock[r] + simtime.Time(rng.Intn(100))
		e.Exit = e.Entry + simtime.Time(rng.Intn(1000))
		clock[r] = e.Exit
		tr.Append(r, &e)
	}
	for i := 0; i < 30; i++ {
		src := rng.Intn(n)
		dst := rng.Intn(n)
		if src == dst {
			push(src, Event{Op: OpCompute, Peer: NoPeer, Req: NoReq})
			continue
		}
		tag := int32(rng.Intn(4))
		bytes := int64(rng.Intn(1 << 16))
		push(src, Event{Op: OpSend, Peer: int32(dst), Tag: tag, Bytes: bytes, Comm: CommWorld, Req: NoReq})
		push(dst, Event{Op: OpRecv, Peer: int32(src), Tag: tag, Bytes: bytes, Comm: CommWorld, Req: NoReq})
	}
	for r := 0; r < n; r++ {
		push(r, Event{Op: OpAllreduce, Peer: NoPeer, Req: NoReq, Comm: CommWorld, Bytes: 128})
	}
	return tr
}

// TestBinaryRoundTripProperty encodes random traces in codec v3 and
// parses them back in copy mode (the portable decode), which must be
// lossless.
func TestBinaryRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng)
		if err := tr.Validate(); err != nil {
			t.Fatalf("generator produced invalid trace: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteColumnsV3(&buf, tr); err != nil {
			t.Fatalf("WriteColumnsV3: %v", err)
		}
		got, err := parseV3(buf.Bytes(), false)
		if err != nil {
			t.Fatalf("parseV3: %v", err)
		}
		for r := 0; r < tr.NumRanks(); r++ {
			if !reflect.DeepEqual(rankEvents(tr, r), rankEvents(got, r)) {
				return false
			}
		}
		return tr.Meta == got.Meta && commTablesEqual(&tr.Comms, &got.Comms)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func commTablesEqual(a, b *CommTable) bool {
	if a.Len() != b.Len() {
		return false
	}
	for c := 0; c < a.Len(); c++ {
		if !reflect.DeepEqual(a.Members(CommID(c)), b.Members(CommID(c))) {
			return false
		}
	}
	return true
}

// TestReadRejectsGarbage feeds the v3 parser inputs that are not v3
// traces at all; each must fail with ErrBadFormat, never panic.
func TestReadRejectsGarbage(t *testing.T) {
	for _, in := range [][]byte{
		nil,
		[]byte("nope"),
		[]byte("HTRC"),             // truncated after magic
		[]byte("HTRC\x63"),         // unknown version
		[]byte("HTRC\x03"),         // v3, header truncated
		[]byte("HTRC\x01\x03ab"),   // retired v1
		[]byte("HTRC\x02\x00\x00"), // retired v2
		append([]byte("HTRC\x03\x00\x00\x00"), make([]byte, 60)...), // zero header fields
	} {
		for _, alias := range []bool{false, true} {
			buf := append([]byte(nil), in...)
			if _, err := parseV3(buf, alias && v3Aliasable(buf)); !errors.Is(err, ErrBadFormat) {
				t.Errorf("parseV3(%q) = %v, want ErrBadFormat", in, err)
			}
		}
	}
}

func TestEventHelpers(t *testing.T) {
	e := Event{Op: OpAlltoall, Bytes: 10}
	if got := e.TotalSendBytes(8); got != 80 {
		t.Errorf("alltoall TotalSendBytes = %d, want 80", got)
	}
	e = Event{Op: OpAlltoallv, SendBytes: []int64{1, 2, 3}}
	if got := e.TotalSendBytes(3); got != 6 {
		t.Errorf("alltoallv TotalSendBytes = %d, want 6", got)
	}
	e = Event{Op: OpRecv, Bytes: 99}
	if got := e.TotalSendBytes(4); got != 0 {
		t.Errorf("recv TotalSendBytes = %d, want 0", got)
	}
	if OpIsend.IsNonblocking() != true || OpSend.IsNonblocking() != false {
		t.Error("IsNonblocking wrong")
	}
	if !OpBcast.IsRooted() || OpAllreduce.IsRooted() {
		t.Error("IsRooted wrong")
	}
	for op := Op(0); op < numOps; op++ {
		if op.String() == "" {
			t.Errorf("op %d has empty name", op)
		}
	}
}
