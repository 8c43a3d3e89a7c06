// Package mpisim replays MPI traces on a simulated network. It
// implements the MPI semantics layer of the SST/Macro-analog
// simulators: message matching, eager/rendezvous protocols, nonblocking
// requests, and collectives lowered onto point-to-point algorithms
// (binomial trees, recursive doubling, dissemination, ring, Bruck, and
// pairwise exchange — the Thakur & Gropp algorithm suite).
//
// The same replay driver also serves as the ground-truth executor: run
// with a Perturber (OS noise + software overhead jitter), it produces
// the "measured" timestamps recorded in the synthetic traces.
package mpisim

import (
	"fmt"
	"unsafe"

	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/trace"
)

// RopKind enumerates the primitive replay operations the driver
// executes after collectives are lowered away.
type RopKind uint8

// The primitive replay operations.
const (
	RopCompute RopKind = iota
	RopSend
	RopIsend
	RopRecv
	RopIrecv
	RopWait // completes a set of requests (Wait and Waitall unified)
	numRopKinds
)

var ropNames = [...]string{"compute", "send", "isend", "recv", "irecv", "wait"}

func (k RopKind) String() string {
	if k >= numRopKinds {
		return fmt.Sprintf("rop(%d)", uint8(k))
	}
	return ropNames[k]
}

// RopColl in Rop.Flags marks an op lowered from a collective: one of the
// point-to-point rounds of its algorithm rather than the trace event
// itself.
const RopColl uint8 = 1

// ropSpan in Rop.Flags marks a wait whose request set is a run of
// consecutive ids, [Req, Req+Ch), which takes no room in the wait arena.
// Most sets are one: a halo exchange waits on the requests it has just
// posted, a collective round on its receive and its send.
const ropSpan uint8 = 2

// Rop is one primitive replay operation on one rank. It holds no
// pointers — a wait's request set is an extent of the program's wait
// arena, and a p2p op's peer is an end of its channel in the program's
// channel table — so a program is one flat block of memory that can be
// written to disk as it is and mapped back without decoding.
type Rop struct {
	// Val is a p2p op's payload in bytes or a compute op's duration
	// (unscaled trace time); Bytes and Dur read it.
	Val int64
	// Ch is the matching channel of a p2p op: the dense id of its (src,
	// dst, tag, comm). A wait keeps its request set's length here.
	Ch int32
	// Req is the request id of an isend/irecv. Lowering renumbers
	// requests densely per rank: the trace's own requests first, in
	// posting order, then the ones its collectives synthesize. A wait
	// keeps its request set's offset here: in the wait arena, or, for a
	// span (ropSpan), in the sequence of all ids 0, 1, 2, …, so that the
	// offset is the set's first id.
	Req int32
	// Ev is the index of the originating event in the rank's trace
	// stream; a rank's ops are in nondecreasing Ev order.
	Ev    int32
	Kind  RopKind
	Flags uint8
	_     [2]byte
}

// Bytes returns a p2p op's payload.
func (op *Rop) Bytes() int64 { return op.Val }

// Dur returns a compute op's duration.
func (op *Rop) Dur() simtime.Time { return simtime.Time(op.Val) }

// waitSet returns the extent [lo, hi) of a wait's request set: in the
// wait arena, or for a span the ids themselves.
func (op *Rop) waitSet() (lo, hi int64) {
	return int64(op.Req), int64(op.Req) + int64(op.Ch)
}

// chanEnds is one row of a program's channel table: the sending and
// the receiving world rank of a matching channel.
type chanEnds struct {
	src, dst int32
}

// ropSize is the in-memory (and on-disk) size of a Rop; the image
// header records it so a layout change can never be misread.
const ropSize = int(unsafe.Sizeof(Rop{}))

// Program is the fully lowered per-rank replay program of one trace:
// every collective expanded into the point-to-point rounds of its
// algorithm, every request and matching key renumbered densely. It is a
// pure function of the trace's events (compute durations are the only
// times it reads), so one program serves every network model the trace
// is replayed on, and MFACT's matching as well. A replay only reads it.
//
// A Program is either lowered in memory (Lower, Session.Lower) or
// opened zero-copy from an image (OpenProgram); the two are
// indistinguishable to a replay.
type Program struct {
	// arena holds every rank's ops, rank-major; ops[r] views rank r's.
	arena []Rop
	ops   [][]Rop
	// opOff[r] is where rank r's ops start in arena; opOff[n] is its
	// length.
	opOff []int64
	// waits is the arena the request set of every wait but a span
	// points into, and ids is 0, 1, 2, … up to the most requests of any
	// rank, which a span's set is an extent of. ids is derived, never
	// stored.
	waits, ids []int32
	// evCount[r] is the number of original events on rank r (for
	// timestamp write-back and the shape check).
	evCount []int32
	// reqCount[r] is the number of replay request ids rank r uses, and
	// appReqs[r] how many of them (the first ones) belong to the trace's
	// own isend/irecv events. The driver tracks request state in flat
	// arrays instead of maps; MFACT needs only the first appReqs[r].
	reqCount []int32
	appReqs  []int32
	// chans is the channel table, one row per distinct (src, dst, tag,
	// comm) matching key; a p2p op's Rop.Ch indexes it.
	chans []chanEnds
}

// NumRanks returns the number of ranks the program replays.
func (p *Program) NumRanks() int { return len(p.ops) }

// Rank returns rank r's ops, in execution order. The slice is read-only.
func (p *Program) Rank(r int) []Rop { return p.ops[r] }

// Waits returns the request set of a wait op. The slice is read-only.
func (p *Program) Waits(op *Rop) []int32 {
	lo, hi := op.waitSet()
	if op.Flags&ropSpan != 0 {
		return p.ids[lo:hi:hi]
	}
	return p.waits[lo:hi:hi]
}

// peer returns the world rank at the other end of a p2p op's channel:
// the destination of a send, the source of a receive.
func (p *Program) peer(op *Rop) int32 {
	if op.Kind == RopSend || op.Kind == RopIsend {
		return p.chans[op.Ch].dst
	}
	return p.chans[op.Ch].src
}

// EventCount returns the number of trace events on rank r.
func (p *Program) EventCount(r int) int { return int(p.evCount[r]) }

// AppRequests returns how many request ids of rank r (numbered from 0)
// come from the trace's own isend/irecv events.
func (p *Program) AppRequests(r int) int32 { return p.appReqs[r] }

// NumChans returns the number of matching channels.
func (p *Program) NumChans() int { return len(p.chans) }

// Fits reports an error when the program cannot be src's: a different
// rank count or a different number of events on some rank. It compares
// shapes only, so it catches a mix-up of traces, not every instance of
// one.
func (p *Program) Fits(src trace.Source) error {
	n := src.TraceMeta().NumRanks
	if n != len(p.evCount) {
		return fmt.Errorf("mpisim: program has %d ranks, trace %s has %d", len(p.evCount), src.TraceMeta().ID(), n)
	}
	for r := 0; r < n; r++ {
		if src.RankLen(r) != int(p.evCount[r]) {
			return fmt.Errorf("mpisim: program has %d events on rank %d, trace %s has %d",
				p.evCount[r], r, src.TraceMeta().ID(), src.RankLen(r))
		}
	}
	return nil
}

// Retime rewrites every compute op's duration from src's event times.
// Compute durations are the only times lowering reads, so retiming a
// program lowered from a trace before it was stamped yields exactly the
// program of the stamped trace: Retime(Lower(generated)) equals
// Lower(stamped). src must be the trace the program was lowered from.
func (p *Program) Retime(src trace.Source) {
	var e trace.Event
	for r, ops := range p.ops {
		for i := range ops {
			if op := &ops[i]; op.Kind == RopCompute {
				src.EventAt(r, int(op.Ev), &e)
				op.Val = int64(e.Duration())
			}
		}
	}
}

// views rebuilds the per-rank op slices from opOff, and the ids span
// waits read.
func (p *Program) views() {
	p.ops = make([][]Rop, len(p.opOff)-1)
	for r := range p.ops {
		p.ops[r] = p.arena[p.opOff[r]:p.opOff[r+1]:p.opOff[r+1]]
	}
	var most int32
	for _, c := range p.reqCount {
		most = max(most, c)
	}
	p.ids = make([]int32, most)
	for i := range p.ids {
		p.ids[i] = int32(i)
	}
}
