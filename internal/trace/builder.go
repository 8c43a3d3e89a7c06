package trace

import (
	"fmt"

	"hpctradeoff/internal/simtime"
)

// Builder incrementally constructs a structurally valid trace. It
// tracks per-rank time cursors (so timestamps satisfy Validate's
// monotonicity) and per-rank request counters. Workload generators
// build "programs" with it: compute events carry intended durations
// and communication events carry zero durations; the ground-truth
// executor later overwrites all timestamps with executed times.
//
// Storage is columnar: events append straight into a Columns store,
// so a build never materializes []Event rows.
type Builder struct {
	cols   *Columns
	cursor []simtime.Time
	req    []int32
	open   []map[int32]bool // requests issued and not yet waited, per rank
}

// NewBuilder starts a trace for the given metadata.
func NewBuilder(meta Meta) *Builder {
	c := NewColumns(meta)
	n := c.Meta.NumRanks
	b := &Builder{
		cols:   c,
		cursor: make([]simtime.Time, n),
		req:    make([]int32, n),
		open:   make([]map[int32]bool, n),
	}
	for r := range b.open {
		b.open[r] = make(map[int32]bool)
	}
	return b
}

// Comms exposes the communicator table for adding sub-communicators.
func (b *Builder) Comms() *CommTable { return &b.cols.Comms }

// AddComm registers a sub-communicator and marks the trace as using
// communicator grouping.
func (b *Builder) AddComm(members []int32) CommID {
	b.cols.Meta.UsesCommSplit = true
	return b.cols.Comms.Add(members)
}

func (b *Builder) push(r int, e Event) {
	e.Entry = b.cursor[r]
	e.Exit = e.Entry
	b.cursor[r] = e.Exit
	b.cols.Append(r, &e)
}

// Compute appends a computation interval of duration d on rank r.
func (b *Builder) Compute(r int, d simtime.Time) {
	e := Event{Op: OpCompute, Peer: NoPeer, Req: NoReq, Entry: b.cursor[r], Exit: b.cursor[r] + d}
	b.cursor[r] = e.Exit
	b.cols.Append(r, &e)
}

// Send appends a blocking send on rank r.
func (b *Builder) Send(r int, peer int32, tag int32, bytes int64, comm CommID) {
	b.push(r, Event{Op: OpSend, Peer: peer, Tag: tag, Bytes: bytes, Comm: comm, Req: NoReq})
}

// Recv appends a blocking receive on rank r.
func (b *Builder) Recv(r int, peer int32, tag int32, bytes int64, comm CommID) {
	b.push(r, Event{Op: OpRecv, Peer: peer, Tag: tag, Bytes: bytes, Comm: comm, Req: NoReq})
}

// Isend appends a nonblocking send and returns its request id.
func (b *Builder) Isend(r int, peer int32, tag int32, bytes int64, comm CommID) int32 {
	id := b.nextReq(r)
	b.push(r, Event{Op: OpIsend, Peer: peer, Tag: tag, Bytes: bytes, Comm: comm, Req: id})
	return id
}

// Irecv appends a nonblocking receive and returns its request id.
func (b *Builder) Irecv(r int, peer int32, tag int32, bytes int64, comm CommID) int32 {
	id := b.nextReq(r)
	b.push(r, Event{Op: OpIrecv, Peer: peer, Tag: tag, Bytes: bytes, Comm: comm, Req: id})
	return id
}

func (b *Builder) nextReq(r int) int32 {
	id := b.req[r]
	b.req[r]++
	b.open[r][id] = true
	return id
}

// Wait appends a single-request wait.
func (b *Builder) Wait(r int, req int32) {
	delete(b.open[r], req)
	b.push(r, Event{Op: OpWait, Peer: NoPeer, Req: req})
}

// Waitall appends a wait on the given requests.
func (b *Builder) Waitall(r int, reqs ...int32) {
	if len(reqs) == 0 {
		return
	}
	for _, q := range reqs {
		delete(b.open[r], q)
	}
	b.push(r, Event{Op: OpWaitall, Peer: NoPeer, Req: NoReq, Reqs: reqs})
}

// WaitOpen appends a waitall on every outstanding request of rank r.
func (b *Builder) WaitOpen(r int) {
	if len(b.open[r]) == 0 {
		return
	}
	reqs := make([]int32, 0, len(b.open[r]))
	for q := range b.open[r] {
		reqs = append(reqs, q)
	}
	// Deterministic order.
	for i := 1; i < len(reqs); i++ {
		for j := i; j > 0 && reqs[j] < reqs[j-1]; j-- {
			reqs[j], reqs[j-1] = reqs[j-1], reqs[j]
		}
	}
	b.Waitall(r, reqs...)
}

// Collective appends a collective with per-member payload bytes on
// rank r. Root is a world rank (ignored for non-rooted ops).
func (b *Builder) Collective(r int, op Op, comm CommID, root int32, bytes int64) {
	b.push(r, Event{Op: op, Peer: NoPeer, Req: NoReq, Comm: comm, Root: root, Bytes: bytes})
}

// Alltoallv appends an alltoallv with the given per-member send sizes.
func (b *Builder) Alltoallv(r int, comm CommID, sendBytes []int64) {
	b.push(r, Event{Op: OpAlltoallv, Peer: NoPeer, Req: NoReq, Comm: comm, SendBytes: sendBytes})
}

// BuildColumns validates and returns the trace, its columns sized
// exactly to their content: a trace lives through stamping and every
// replay, so the slack of appending would cost it that long.
func (b *Builder) BuildColumns() (*Columns, error) {
	b.cols.clip()
	if err := b.cols.Validate(); err != nil {
		return nil, fmt.Errorf("trace builder produced invalid trace: %w", err)
	}
	return b.cols, nil
}
