package mpisim

import (
	"fmt"
	"math"

	"hpctradeoff/internal/trace"
)

// Collective traffic uses a reserved tag space far above application
// tags so lowered rounds never match application messages. Every
// instance of a communicator's collectives uses the same tag: each
// algorithm has member A send member B exactly as many messages as B
// receives from A, posted in the same order on both sides, so FIFO
// matching per channel pairs every round with its own across instances
// too, and the channel table grows with the communication graph rather
// than with the number of collectives.
const collTagBase int32 = 1 << 20

// LoweringVersion identifies what lowering produces from a trace: the
// collective algorithms, the numbering of requests and channels, and the
// Rop layout. Anything that changes the program of some trace bumps it,
// so a program stored by an older build is recognized as stale and
// lowered again rather than replayed. Version 2 was the 24-byte Rop
// with peers in the channel table; version 3 lowers each distinct
// collective once per rank into a template that its instances run by
// reference.
const LoweringVersion = 3

// lowerer builds a Program by walking the trace rank by rank. A rank's
// ops, one per event, are appended to the one op arena while it is
// walked, so they are contiguous. A collective's rounds go to the
// template arena, and only for the first instance of its header on
// the rank (collKey); every instance is one op naming that template. A
// sizing pass first dry-runs each template once and bounds the
// wait-set entries, so the arenas are allocated once: the op arena at
// the trace's event count, the template arena at its exact size, and
// the wait arena at most at the size of the trace's waitall sets and
// the templates' wait sets, whichever of them turn out to be spans. A
// Session's arenas, kept from trace to trace, grow only for a trace
// bigger than any before it.
//
// The walk also resolves every point-to-point op's matching key (src,
// dst, tag, comm) to a dense channel id, so the one hash lookup a
// message costs is paid here, once per trace, and a replay indexes a
// slice.
type lowerer struct {
	src   trace.Source
	comms *trace.CommTable

	// counting marks the sizing pass: emitting only counts, and
	// nTops, nTmpls and nWaits are the counts.
	counting              bool
	nTops, nTmpls, nWaits int
	ops                   []Rop   // the op arena: every rank walked so far
	tops                  []Rop   // the template op arena
	waits                 []int32 // the wait arena
	scratch               []int32 // transient wait-set buffer, owned until the emit
	// inTmpl sends emitted ops to the template arena.
	inTmpl bool

	// Request numbering of the rank being walked. The trace's own
	// requests are numbered first, in posting order; nextSynth numbers
	// the requests of the template being expanded from 0.
	nApp, nextSynth int32
	reqMap          map[int32]int32 // trace request id → replay id

	// tmpls is every template so far, and rankTmpl the first of the
	// rank being walked; tmplIDs numbers the rank's templates by
	// header, and vIDs the alltoallv send and receive counts they are
	// keyed by (vBuf builds one).
	tmpls    []collTemplate
	rankTmpl int
	tmplIDs  map[collKey]int32
	vIDs     map[string]int32
	vBuf     []int64

	chans chanTable
}

// chanKey is the MPI matching key of a point-to-point message.
type chanKey struct {
	src, dst, tag int32
	comm          int32
}

// collKey is everything a collective's rounds on one rank are a
// function of, besides the rank: its header, and for an alltoallv the
// number vIDs gives its send and receive counts.
type collKey struct {
	bytes      int64
	comm, root int32
	v          int32
	op         trace.Op
}

// Lower translates a validated trace into a fresh Program that belongs
// to the caller and outlives any Session. Its arenas hold no slack.
func Lower(src trace.Source) (*Program, error) {
	prog, err := lower(src, &Session{})
	if err == nil && cap(prog.waits) > len(prog.waits) {
		prog.waits = append([]int32(nil), prog.waits...)
	}
	return prog, err
}

// lower translates a validated trace into primitive replay programs:
// point-to-point and compute events copy through (with requests
// renumbered into a fresh namespace), and every collective becomes an
// instance of a template holding the point-to-point rounds of its
// algorithm. sess supplies the arenas, reused across traces.
func lower(src trace.Source, sess *Session) (*Program, error) {
	n := src.TraceMeta().NumRanks
	events := 0
	for r := 0; r < n; r++ {
		events += src.RankLen(r)
	}
	lw := &lowerer{
		src:     src,
		comms:   src.TraceComms(),
		reqMap:  make(map[int32]int32),
		tmplIDs: make(map[collKey]int32),
	}
	// Index alltoallv events by (comm, instance) so every member can
	// see every other member's send counts.
	vIndex := buildAlltoallvIndex(src)
	lw.size(vIndex)
	if lw.nWaits > math.MaxInt32 {
		return nil, fmt.Errorf("mpisim: %s lowers to %d wait-set entries, more than a program holds", src.TraceMeta().ID(), lw.nWaits)
	}
	lw.ops, lw.tops, lw.waits = arena(&sess.opArena, events), arena(&sess.tmplArena, lw.nTops), arena(&sess.reqArena, lw.nWaits)
	lw.tmpls = make([]collTemplate, 0, lw.nTmpls)
	prog := &Program{
		opOff:    make([]int64, n+1),
		reqCount: make([]int32, n),
		appReqs:  make([]int32, n),
		tmplOff:  make([]int64, n+1),
	}
	collSeq := make([]int, lw.comms.Len())
	for rank := 0; rank < n; rank++ {
		start := len(lw.ops)
		clear(collSeq)
		clear(lw.reqMap)
		clear(lw.tmplIDs)
		clear(lw.vIDs)
		lw.nApp, lw.rankTmpl = 0, len(lw.tmpls)
		if err := lw.rank(rank, collSeq, vIndex); err != nil {
			return nil, err
		}
		// A rank runs one collective at a time, and a template waits on
		// every request it posts, so every instance can use the same
		// ids: the ones after the rank's own requests.
		var most int32
		for _, t := range lw.tmpls[lw.rankTmpl:] {
			most = max(most, t.reqs)
		}
		for i := start; i < len(lw.ops); i++ {
			if op := &lw.ops[i]; op.Kind == RopCollective {
				op.Req = lw.nApp
			}
		}
		prog.opOff[rank+1] = int64(len(lw.ops))
		prog.tmplOff[rank+1] = int64(len(lw.tmpls))
		prog.appReqs[rank] = lw.nApp
		prog.reqCount[rank] = lw.nApp + most
	}
	sess.opArena, sess.reqArena, sess.tmplArena = lw.ops, lw.waits, lw.tops
	prog.arena, prog.waits, prog.chans, prog.tmpls, prog.tarena = lw.ops, lw.waits, lw.chans.ends(), lw.tmpls, lw.tops
	// An empty section opens from an image as nil.
	prog.waits, prog.tmpls, prog.tarena = orNil(prog.waits), orNil(prog.tmpls), orNil(prog.tarena)
	prog.views()
	return prog, nil
}

// size runs the sizing pass, setting nTops and nTmpls to what lowering
// will emit and nWaits to at least that. A rank's own ops are one per
// event, a wait's set being a span or its own request list, so only
// the first instance of each template needs a dry run of its
// algorithm. Malformed events are left for the filling walk to report.
func (lw *lowerer) size(vIndex map[vKey][][]int64) {
	lw.counting = true
	defer func() { lw.counting = false }()
	collSeq := make([]int, lw.comms.Len())
	var e trace.Event
	for rank := 0; rank < lw.src.TraceMeta().NumRanks; rank++ {
		clear(collSeq)
		clear(lw.tmplIDs)
		clear(lw.vIDs)
		m := lw.src.RankLen(rank)
		for i := 0; i < m; i++ {
			switch op := lw.src.OpAt(rank, i); {
			case op == trace.OpWaitall:
				lw.src.EventAt(rank, i, &e)
				lw.nWaits += len(e.Reqs)
			case op.IsCollective():
				lw.src.EventAt(rank, i, &e)
				if int(e.Comm) < 0 || int(e.Comm) >= len(collSeq) {
					continue
				}
				seq := collSeq[e.Comm]
				collSeq[e.Comm]++
				_, _ = lw.template(rank, &e, seq, vIndex)
			}
		}
	}
}

// orNil returns s, or nil if it is empty.
func orNil[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

// rank walks one rank's event stream, emitting its ops.
func (lw *lowerer) rank(rank int, collSeq []int, vIndex map[vKey][][]int64) error {
	var e trace.Event
	m := lw.src.RankLen(rank)
	for i := 0; i < m; i++ {
		lw.src.EventAt(rank, i, &e)
		comm := int32(e.Comm)
		switch e.Op {
		case trace.OpCompute:
			lw.push(Rop{Kind: RopCompute, Val: int64(e.Duration())})
		case trace.OpSend:
			lw.emitP2P(rank, RopSend, e.Bytes, 0, e.Peer, e.Tag, comm)
		case trace.OpRecv:
			lw.emitP2P(rank, RopRecv, e.Bytes, 0, e.Peer, e.Tag, comm)
		case trace.OpIsend:
			lw.emitP2P(rank, RopIsend, e.Bytes, lw.fresh(e.Req), e.Peer, e.Tag, comm)
		case trace.OpIrecv:
			lw.emitP2P(rank, RopIrecv, e.Bytes, lw.fresh(e.Req), e.Peer, e.Tag, comm)
		case trace.OpWait:
			id, err := lw.lookup(rank, i, e.Req)
			if err != nil {
				return err
			}
			lw.scratch = append(lw.scratch[:0], id)
			lw.wait(lw.scratch)
		case trace.OpWaitall:
			lw.scratch = lw.scratch[:0]
			for _, r := range e.Reqs {
				id, err := lw.lookup(rank, i, r)
				if err != nil {
					return err
				}
				lw.scratch = append(lw.scratch, id)
			}
			lw.wait(lw.scratch)
		default:
			if !e.Op.IsCollective() {
				return fmt.Errorf("mpisim: rank %d event %d: unsupported op %v", rank, i, e.Op)
			}
			if int(e.Comm) < 0 || int(e.Comm) >= len(collSeq) {
				return fmt.Errorf("mpisim: rank %d event %d: comm %d out of range", rank, i, e.Comm)
			}
			seq := collSeq[e.Comm]
			collSeq[e.Comm]++
			id, err := lw.template(rank, &e, seq, vIndex)
			if err != nil {
				return err
			}
			lw.ops = append(lw.ops, Rop{Kind: RopCollective, Ch: id})
		}
	}
	return nil
}

// push appends op to the arena being emitted into. The sizing pass
// emits only templates' rounds, and counts them.
func (lw *lowerer) push(op Rop) {
	switch {
	case lw.counting:
		lw.nTops++
	case lw.inTmpl:
		lw.tops = append(lw.tops, op)
	default:
		lw.ops = append(lw.ops, op)
	}
}

// wait appends a wait on the request set reqs: a span if its ids are
// consecutive, and otherwise copied into the wait arena, so callers may
// pass a reused scratch buffer.
func (lw *lowerer) wait(reqs []int32) {
	if lw.counting {
		if !consecutive(reqs) {
			lw.nWaits += len(reqs)
		}
		lw.nTops++
		return
	}
	op := Rop{Kind: RopWait, Ch: int32(len(reqs)), Req: int32(len(lw.waits))}
	if consecutive(reqs) {
		op.Req, op.Flags = reqs[0], ropSpan
	} else {
		lw.waits = append(lw.waits, reqs...)
	}
	lw.push(op)
}

// consecutive reports whether reqs is a non-empty run of consecutive
// ascending ids.
func consecutive(reqs []int32) bool {
	for i, q := range reqs {
		if q != reqs[0]+int32(i) {
			return false
		}
	}
	return len(reqs) > 0
}

// emitP2P appends a point-to-point op of rank with the given kind,
// payload and request; peer, tag and comm complete its matching key,
// which names its channel.
func (lw *lowerer) emitP2P(rank int, kind RopKind, bytes int64, req, peer, tag, comm int32) {
	if lw.counting {
		lw.nTops++
		return
	}
	k := chanKey{src: int32(rank), dst: peer, tag: tag, comm: comm}
	if kind == RopRecv || kind == RopIrecv {
		k.src, k.dst = peer, int32(rank)
	}
	lw.push(Rop{Kind: kind, Val: bytes, Ch: lw.chans.id(k), Req: req})
}

// chanTable numbers matching keys densely in first-use order. It is an
// open-addressed table probed linearly, sized to a power of two at most
// half full, because a lookup per point-to-point op is most of what
// lowering costs and a Go map hashes a 16-byte key several times slower.
type chanTable struct {
	keys []chanKey
	ids  []int32 // id+1 of the key in the same slot; 0 marks a free slot
	n    int32
}

// id returns k's channel id, numbering it if it is new.
func (t *chanTable) id(k chanKey) int32 {
	if 2*int(t.n+1) > len(t.ids) {
		t.grow()
	}
	mask := uint64(len(t.ids) - 1)
	for i := k.hash() & mask; ; i = (i + 1) & mask {
		switch id := t.ids[i]; {
		case id == 0:
			t.keys[i], t.ids[i] = k, t.n+1
			t.n++
			return t.n - 1
		case t.keys[i] == k:
			return id - 1
		}
	}
}

// grow doubles the table (from 1024 slots) and reinserts every key.
func (t *chanTable) grow() {
	keys, ids := t.keys, t.ids
	size := max(1024, 2*len(ids))
	t.keys, t.ids = make([]chanKey, size), make([]int32, size)
	mask := uint64(size - 1)
	for j, id := range ids {
		if id == 0 {
			continue
		}
		i := keys[j].hash() & mask
		for t.ids[i] != 0 {
			i = (i + 1) & mask
		}
		t.keys[i], t.ids[i] = keys[j], id
	}
}

// ends returns the channel table: each channel's ends, by id.
func (t *chanTable) ends() []chanEnds {
	out := make([]chanEnds, t.n)
	for i, id := range t.ids {
		if id != 0 {
			out[id-1] = chanEnds{src: t.keys[i].src, dst: t.keys[i].dst}
		}
	}
	return out
}

// hash mixes the key's two 64-bit halves (a multiply-xorshift finalizer).
func (k chanKey) hash() uint64 {
	x := (uint64(uint32(k.src))<<32 | uint64(uint32(k.dst))) * 0x9e3779b97f4a7c15
	x ^= (uint64(uint32(k.tag))<<32 | uint64(uint32(k.comm))) * 0xc2b2ae3d27d4eb4f
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	return x ^ x>>32
}

// fresh allocates a new request id for one of the trace's own requests
// and records the mapping from the trace's id.
func (lw *lowerer) fresh(orig int32) int32 {
	id := lw.nApp
	lw.nApp++
	lw.reqMap[orig] = id
	return id
}

// synth allocates a request id for a round of the template being
// expanded, counted from the template's first.
func (lw *lowerer) synth() int32 {
	id := lw.nextSynth
	lw.nextSynth++
	return id
}

// lookup resolves a trace request id to its renumbered replay id.
// Validated traces never miss, but Replay accepts unvalidated traces,
// so a miss is reported as a diagnosable malformed-trace error (in the
// style of the deadlock report) rather than a panic.
func (lw *lowerer) lookup(rank, event int, orig int32) (int32, error) {
	id, ok := lw.reqMap[orig]
	if !ok {
		return 0, fmt.Errorf("%w: rank %d event %d waits on request %d, which was never posted or was already completed",
			ErrUnknownRequest, rank, event, orig)
	}
	delete(lw.reqMap, orig)
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
			if !src.OpAt(rank, i).IsCollective() {
				continue
			}
			src.EventAt(rank, i, &e)
			if int(e.Comm) < 0 || int(e.Comm) >= len(counts) {
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
