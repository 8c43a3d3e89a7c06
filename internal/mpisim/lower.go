package mpisim

import (
	"fmt"

	"hpctradeoff/internal/trace"
)

// Collective traffic uses a reserved tag space far above application
// tags so lowered rounds never match application messages.
const collTagBase int32 = 1 << 20

// lowerer accumulates per-rank replay programs while walking a trace.
//
// Lowering runs twice over the same logic: a counting pass sizes every
// per-rank program and wait-set arena, then a fill pass writes rops
// into exactly-sized flat arenas. The slice-doubling garbage a single
// append-driven pass would leave behind is worth two cheap walks to
// avoid: after the fill pass the whole program is two allocations (rop
// arena + wait-set arena), and none when a Session's arenas already fit.
//
// The fill pass also resolves every point-to-point op's matching key
// (src, dst, tag, comm) to a dense channel id, so the one map lookup a
// message costs is paid here, once per trace, and a replay indexes a
// slice.
type lowerer struct {
	src      trace.Source
	comms    *trace.CommTable
	counting bool

	// Counting pass outputs.
	nOps  []int // rops per rank
	nReqs []int // wait-set ints per rank

	// Fill pass state: exactly-sized per-rank views into shared arenas.
	out      [][]rop
	used     []int
	reqsOut  [][]int32
	reqsUsed []int

	scratch []int32 // transient wait-set buffer, owned until the emit

	nextReq []int32 // per-rank fresh request ids
	reqMap  []map[int32]int32

	chanIDs map[chanKey]int32 // fill pass: matching key → dense channel id
}

// chanKey is the MPI matching key of a point-to-point message.
type chanKey struct {
	src, dst, tag int32
	comm          int32
}

// lower translates a validated trace into primitive replay programs:
// point-to-point and compute events copy through (with requests
// renumbered into a fresh namespace), and every collective expands into
// the point-to-point rounds of its algorithm. sess supplies the arenas,
// reused across traces.
func lower(src trace.Source, sess *Session) (*program, error) {
	n := src.TraceMeta().NumRanks
	lw := &lowerer{
		src:      src,
		comms:    src.TraceComms(),
		counting: true,
		nOps:     make([]int, n),
		nReqs:    make([]int, n),
		nextReq:  make([]int32, n),
		reqMap:   make([]map[int32]int32, n),
	}
	for r := range lw.reqMap {
		lw.reqMap[r] = make(map[int32]int32)
	}

	// Index alltoallv events by (comm, instance) so every member can
	// see every other member's send counts.
	vIndex := buildAlltoallvIndex(src)

	if err := lw.pass(vIndex); err != nil {
		return nil, err
	}

	// Size the arenas from the counting pass and run again, filling.
	totalOps, totalReqs := 0, 0
	for r := 0; r < n; r++ {
		totalOps += lw.nOps[r]
		totalReqs += lw.nReqs[r]
	}
	opArena := sess.ops(totalOps)
	reqArena := sess.reqs(totalReqs)
	lw.out = make([][]rop, n)
	lw.used = make([]int, n)
	lw.reqsOut = make([][]int32, n)
	lw.reqsUsed = make([]int, n)
	for r, opOff, reqOff := 0, 0, 0; r < n; r++ {
		lw.out[r] = opArena[opOff : opOff+lw.nOps[r] : opOff+lw.nOps[r]]
		lw.reqsOut[r] = reqArena[reqOff : reqOff+lw.nReqs[r] : reqOff+lw.nReqs[r]]
		opOff += lw.nOps[r]
		reqOff += lw.nReqs[r]
	}
	lw.counting = false
	lw.chanIDs = make(map[chanKey]int32)
	if err := lw.pass(vIndex); err != nil {
		return nil, err
	}

	evCount := make([]int, n)
	reqCount := make([]int32, n)
	for r := 0; r < n; r++ {
		evCount[r] = src.RankLen(r)
		reqCount[r] = lw.nextReq[r]
	}
	return &program{ops: lw.out, evCount: evCount, reqCount: reqCount, numChans: len(lw.chanIDs)}, nil
}

// pass walks every rank's event stream once, emitting (or counting)
// the lowered program.
func (lw *lowerer) pass(vIndex map[vKey][][]int64) error {
	n := lw.src.TraceMeta().NumRanks
	collSeq := make([]int, lw.comms.Len())
	var e trace.Event
	for rank := 0; rank < n; rank++ {
		clear(collSeq)
		m := lw.src.RankLen(rank)
		for i := 0; i < m; i++ {
			lw.src.EventAt(rank, i, &e)
			ev := int32(i)
			switch e.Op {
			case trace.OpCompute:
				lw.emit(rank, rop{kind: ropCompute, dur: e.Duration(), ev: ev})
			case trace.OpSend:
				lw.emit(rank, rop{kind: ropSend, peer: e.Peer, tag: e.Tag, comm: int32(e.Comm), bytes: e.Bytes, ev: ev})
			case trace.OpRecv:
				lw.emit(rank, rop{kind: ropRecv, peer: e.Peer, tag: e.Tag, comm: int32(e.Comm), bytes: e.Bytes, ev: ev})
			case trace.OpIsend:
				lw.emit(rank, rop{kind: ropIsend, peer: e.Peer, tag: e.Tag, comm: int32(e.Comm), bytes: e.Bytes, req: lw.fresh(rank, e.Req), ev: ev})
			case trace.OpIrecv:
				lw.emit(rank, rop{kind: ropIrecv, peer: e.Peer, tag: e.Tag, comm: int32(e.Comm), bytes: e.Bytes, req: lw.fresh(rank, e.Req), ev: ev})
			case trace.OpWait:
				id, err := lw.lookup(rank, i, e.Req)
				if err != nil {
					return err
				}
				lw.scratch = append(lw.scratch[:0], id)
				lw.emit(rank, rop{kind: ropWait, reqs: lw.scratch, ev: ev})
			case trace.OpWaitall:
				lw.scratch = lw.scratch[:0]
				for _, r := range e.Reqs {
					id, err := lw.lookup(rank, i, r)
					if err != nil {
						return err
					}
					lw.scratch = append(lw.scratch, id)
				}
				lw.emit(rank, rop{kind: ropWait, reqs: lw.scratch, ev: ev})
			default:
				if !e.Op.IsCollective() {
					return fmt.Errorf("mpisim: rank %d event %d: unsupported op %v", rank, i, e.Op)
				}
				if int(e.Comm) < 0 || int(e.Comm) >= len(collSeq) {
					return fmt.Errorf("mpisim: rank %d event %d: comm %d out of range", rank, i, e.Comm)
				}
				seq := collSeq[e.Comm]
				collSeq[e.Comm]++
				if err := lw.lowerCollective(rank, &e, ev, seq, vIndex); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// emit appends op to rank's program (or just counts it). op.reqs is
// only read during the call: the fill pass copies it into the wait-set
// arena, so callers may pass a reused scratch buffer.
func (lw *lowerer) emit(rank int, op rop) {
	if lw.counting {
		lw.nOps[rank]++
		lw.nReqs[rank] += len(op.reqs)
		return
	}
	if len(op.reqs) > 0 {
		start := lw.reqsUsed[rank]
		end := start + len(op.reqs)
		copy(lw.reqsOut[rank][start:end], op.reqs)
		op.reqs = lw.reqsOut[rank][start:end:end]
		lw.reqsUsed[rank] = end
	}
	switch op.kind {
	case ropSend, ropIsend:
		op.ch = lw.channel(chanKey{src: int32(rank), dst: op.peer, tag: op.tag, comm: op.comm})
	case ropRecv, ropIrecv:
		op.ch = lw.channel(chanKey{src: op.peer, dst: int32(rank), tag: op.tag, comm: op.comm})
	}
	lw.out[rank][lw.used[rank]] = op
	lw.used[rank]++
}

// channel returns k's dense id, numbering keys in first-use order.
func (lw *lowerer) channel(k chanKey) int32 {
	id, ok := lw.chanIDs[k]
	if !ok {
		id = int32(len(lw.chanIDs))
		lw.chanIDs[k] = id
	}
	return id
}

// fresh allocates a new request id for rank and records the mapping
// from the trace's id. The counting pass sizes arenas and needs no ids.
func (lw *lowerer) fresh(rank int, orig int32) int32 {
	if lw.counting {
		return 0
	}
	id := lw.nextReq[rank]
	lw.nextReq[rank]++
	lw.reqMap[rank][orig] = id
	return id
}

// synth allocates a request id for a synthetic (lowered) operation.
func (lw *lowerer) synth(rank int) int32 {
	if lw.counting {
		return 0
	}
	id := lw.nextReq[rank]
	lw.nextReq[rank]++
	return id
}

// lookup resolves a trace request id to its renumbered replay id.
// Validated traces never miss, but Replay accepts unvalidated traces,
// so a miss is reported as a diagnosable malformed-trace error (in the
// style of the deadlock report) rather than a panic.
func (lw *lowerer) lookup(rank, event int, orig int32) (int32, error) {
	if lw.counting {
		return 0, nil // the fill pass reports a miss
	}
	id, ok := lw.reqMap[rank][orig]
	if !ok {
		return 0, fmt.Errorf("%w: rank %d event %d waits on request %d, which was never posted or was already completed",
			ErrUnknownRequest, rank, event, orig)
	}
	delete(lw.reqMap[rank], orig)
	return id, nil
}

type vKey struct {
	comm trace.CommID
	seq  int
}

// buildAlltoallvIndex maps (comm, per-comm alltoallv instance) to the
// per-member SendBytes tables, indexed by member position. The tables
// alias the trace's backing storage and are read-only.
func buildAlltoallvIndex(src trace.Source) map[vKey][][]int64 {
	var idx map[vKey][][]int64 // most traces have none; allocate lazily
	comms := src.TraceComms()
	n := src.TraceMeta().NumRanks
	counts := make([]int, comms.Len())
	var e trace.Event
	for rank := 0; rank < n; rank++ {
		clear(counts)
		m := src.RankLen(rank)
		for i := 0; i < m; i++ {
			src.EventAt(rank, i, &e)
			if !e.Op.IsCollective() || int(e.Comm) < 0 || int(e.Comm) >= len(counts) {
				continue
			}
			seq := counts[e.Comm]
			counts[e.Comm]++
			if e.Op != trace.OpAlltoallv {
				continue
			}
			if idx == nil {
				idx = make(map[vKey][][]int64)
			}
			k := vKey{e.Comm, seq}
			tbl := idx[k]
			if tbl == nil {
				tbl = make([][]int64, comms.Size(e.Comm))
				idx[k] = tbl
			}
			pos := comms.Position(e.Comm, int32(rank))
			tbl[pos] = e.SendBytes
		}
	}
	return idx
}
