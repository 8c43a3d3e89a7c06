package mpisim

import (
	"testing"

	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/trace"
)

// tb is a tiny trace builder for tests: it tracks per-rank cursors so
// generated timestamps satisfy Columns.Validate's monotonicity.
type tb struct {
	tr     *trace.Columns
	cursor []simtime.Time
	req    []int32
}

func newTB(ranks int) *tb {
	return &tb{
		tr:     trace.NewColumns(trace.Meta{App: "test", Class: "T", Machine: "cielito", NumRanks: ranks, RanksPerNode: 4}),
		cursor: make([]simtime.Time, ranks),
		req:    make([]int32, ranks),
	}
}

func (b *tb) push(r int, e trace.Event) {
	e.Entry = b.cursor[r]
	if e.Op == trace.OpCompute {
		e.Exit = e.Entry + e.Exit // Exit passed as duration
	} else {
		e.Exit = e.Entry
	}
	b.cursor[r] = e.Exit
	b.tr.Append(r, &e)
}

func (b *tb) compute(r int, d simtime.Time) {
	b.push(r, trace.Event{Op: trace.OpCompute, Exit: d, Peer: trace.NoPeer, Req: trace.NoReq})
}

func (b *tb) send(r, peer, tag int, bytes int64) {
	b.push(r, trace.Event{Op: trace.OpSend, Peer: int32(peer), Tag: int32(tag), Bytes: bytes, Comm: trace.CommWorld, Req: trace.NoReq})
}

func (b *tb) recv(r, peer, tag int, bytes int64) {
	b.push(r, trace.Event{Op: trace.OpRecv, Peer: int32(peer), Tag: int32(tag), Bytes: bytes, Comm: trace.CommWorld, Req: trace.NoReq})
}

func (b *tb) isend(r, peer, tag int, bytes int64) int32 {
	id := b.req[r]
	b.req[r]++
	b.push(r, trace.Event{Op: trace.OpIsend, Peer: int32(peer), Tag: int32(tag), Bytes: bytes, Comm: trace.CommWorld, Req: id})
	return id
}

func (b *tb) irecv(r, peer, tag int, bytes int64) int32 {
	id := b.req[r]
	b.req[r]++
	b.push(r, trace.Event{Op: trace.OpIrecv, Peer: int32(peer), Tag: int32(tag), Bytes: bytes, Comm: trace.CommWorld, Req: id})
	return id
}

func (b *tb) waitall(r int, reqs ...int32) {
	b.push(r, trace.Event{Op: trace.OpWaitall, Peer: trace.NoPeer, Req: trace.NoReq, Reqs: reqs})
}

func (b *tb) coll(r int, op trace.Op, comm trace.CommID, root int, bytes int64) {
	b.push(r, trace.Event{Op: op, Peer: trace.NoPeer, Req: trace.NoReq, Comm: comm, Root: int32(root), Bytes: bytes})
}

func (b *tb) alltoallv(r int, comm trace.CommID, sendBytes []int64) {
	b.push(r, trace.Event{Op: trace.OpAlltoallv, Peer: trace.NoPeer, Req: trace.NoReq, Comm: comm, SendBytes: sendBytes})
}

func (b *tb) build(t *testing.T) *trace.Columns {
	t.Helper()
	if err := b.tr.Validate(); err != nil {
		t.Fatalf("test trace invalid: %v", err)
	}
	return b.tr
}
