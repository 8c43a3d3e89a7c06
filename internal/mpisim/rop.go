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
	RopWait       // completes a set of requests (Wait and Waitall unified)
	RopCollective // runs one instance of a collective template
	numRopKinds
)

var ropNames = [...]string{"compute", "send", "isend", "recv", "irecv", "wait", "collective"}

func (k RopKind) String() string {
	if k >= numRopKinds {
		return fmt.Sprintf("rop(%d)", uint8(k))
	}
	return ropNames[k]
}

// Rop is one primitive replay operation on one rank. It holds no
// pointers — a wait's request set is an extent of the program's wait
// arena, a p2p op's peer is an end of its channel in the program's
// channel table, and a collective names its rank's template by id — so
// a program is one flat block of memory that can be written to disk as
// it is and mapped back without decoding.
//
// A rank's ops are one per trace event, in event order, so an op's
// event is its index. A collective event is one RopCollective op that
// points at a template: the point-to-point rounds its algorithm lowers
// to, stored once per rank for every instance with the same header
// (DESIGN.md §9). A template's rounds belong to the event of the
// instance that runs them, and their requests (and wait sets) count
// from 0: the instance supplies the base.
type Rop struct {
	// Val is a p2p op's payload in bytes or a compute op's duration
	// (unscaled trace time); Bytes and Dur read it.
	Val int64
	// Ch is the matching channel of a p2p op: the dense id of its (src,
	// dst, tag, comm). A wait keeps its request set's length here, and
	// a collective its template's id among its rank's templates.
	Ch int32
	// Req is the request id of an isend/irecv. Lowering renumbers
	// requests densely per rank: the trace's own requests first, in
	// posting order, then the ones a collective's template uses. A wait
	// keeps its request set's offset here: in the wait arena, or, for a
	// span (ropSpan), in the sequence of all ids 0, 1, 2, …, so that the
	// offset is the set's first id. A collective keeps the base its
	// template's request ids are offset by.
	Req   int32
	Kind  RopKind
	Flags uint8
	_     [6]byte
}

// ropSpan in Rop.Flags marks a wait whose request set is a run of
// consecutive ids, [Req, Req+Ch), which takes no room in the wait arena.
// Most sets are one: a halo exchange waits on the requests it has just
// posted, a collective round on its receive and its send.
const ropSpan uint8 = 1

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

// Collective is the header of a collective instance: what its trace
// event says of it, and everything MFACT's collective cost model reads.
type Collective struct {
	// Bytes is the event's payload (per member, or per destination for
	// an alltoall).
	Bytes int64
	// SendTotal is an alltoallv's send payload summed over its
	// destinations; 0 for the other collectives.
	SendTotal int64
	Comm      trace.CommID
	// Root is a rooted collective's root, as a world rank.
	Root int32
	Op   trace.Op
	_    [7]byte
}

// HeaderOf returns the header of collective event e.
func HeaderOf(e *trace.Event) Collective {
	c := Collective{Bytes: e.Bytes, Comm: e.Comm, Root: e.Root, Op: e.Op}
	if e.Op == trace.OpAlltoallv {
		for _, b := range e.SendBytes {
			c.SendTotal += b
		}
	}
	return c
}

// collTemplate is one entry of a rank's template table: a collective's
// header and the rounds its algorithm lowers to on that rank, as an
// extent of the program's template op arena, the extent of the wait
// arena its stored wait sets use, and how many request ids its rounds
// post. An empty template is a single-member collective, which has no
// rounds.
type collTemplate struct {
	Collective
	opOff, waitOff       int64
	opLen, waitLen, reqs int32
	_                    int32
}

// templateSize is the in-memory (and on-disk) size of a collTemplate.
const templateSize = int(unsafe.Sizeof(collTemplate{}))

// Program is the fully lowered per-rank replay program of one trace:
// every collective lowered to the point-to-point rounds of its
// algorithm, once per rank and distinct header, every request and
// matching key renumbered densely. It is a
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
	// reqCount[r] is the number of replay request ids rank r uses, and
	// appReqs[r] how many of them (the first ones) belong to the trace's
	// own isend/irecv events. The driver tracks request state in flat
	// arrays instead of maps; MFACT needs only the first appReqs[r].
	reqCount []int32
	appReqs  []int32
	// chans is the channel table, one row per distinct (src, dst, tag,
	// comm) matching key; a p2p op's Rop.Ch indexes it.
	chans []chanEnds
	// tmpls holds every rank's template table, rank-major: rank r's
	// are tmpls[tmplOff[r]:tmplOff[r+1]], and a collective op's Rop.Ch
	// counts from tmplOff[r]. tarena holds the templates' ops.
	tmplOff []int64
	tmpls   []collTemplate
	tarena  []Rop
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

// Collective returns the header of the collective op on rank r. The
// value is read-only.
func (p *Program) Collective(r int, op *Rop) *Collective {
	return &p.tmpls[p.tmplOff[r]+int64(op.Ch)].Collective
}

// template returns the template the collective op on rank r runs.
func (p *Program) template(r int32, op *Rop) *collTemplate {
	return &p.tmpls[p.tmplOff[r]+int64(op.Ch)]
}

// templateOps returns the rounds of template t.
func (p *Program) templateOps(t *collTemplate) []Rop {
	end := t.opOff + int64(t.opLen)
	return p.tarena[t.opOff:end:end]
}

// NumTemplates returns the number of collective templates, over all
// ranks, and TemplateOps the number of ops they hold.
func (p *Program) NumTemplates() int { return len(p.tmpls) }

// TemplateOps returns the number of ops the collective templates hold.
func (p *Program) TemplateOps() int { return len(p.tarena) }

// peer returns the world rank at the other end of a p2p op's channel:
// the destination of a send, the source of a receive.
func (p *Program) peer(op *Rop) int32 {
	if op.Kind == RopSend || op.Kind == RopIsend {
		return p.chans[op.Ch].dst
	}
	return p.chans[op.Ch].src
}

// EventCount returns the number of trace events on rank r.
func (p *Program) EventCount(r int) int { return len(p.ops[r]) }

// AppRequests returns how many request ids of rank r (numbered from 0)
// come from the trace's own isend/irecv events.
func (p *Program) AppRequests(r int) int32 { return p.appReqs[r] }

// NumChans returns the number of matching channels.
func (p *Program) NumChans() int { return len(p.chans) }

// Fits reports an error when the program cannot be src's: a different
// rank count, a different number of events on some rank, or a
// collective on a communicator the trace does not have. It compares
// shapes only, so it catches a mix-up of traces, not every instance of
// one.
func (p *Program) Fits(src trace.Source) error {
	n := src.TraceMeta().NumRanks
	if n != len(p.ops) {
		return fmt.Errorf("mpisim: program has %d ranks, trace %s has %d", len(p.ops), src.TraceMeta().ID(), n)
	}
	for r := 0; r < n; r++ {
		if src.RankLen(r) != len(p.ops[r]) {
			return fmt.Errorf("mpisim: program has %d events on rank %d, trace %s has %d",
				len(p.ops[r]), r, src.TraceMeta().ID(), src.RankLen(r))
		}
	}
	comms := src.TraceComms().Len()
	for i := range p.tmpls {
		if c := p.tmpls[i].Comm; c < 0 || int(c) >= comms {
			return fmt.Errorf("mpisim: program has a collective on communicator %d, trace %s has %d", c, src.TraceMeta().ID(), comms)
		}
	}
	return nil
}

// Retime rewrites every compute op's duration from src's event times.
// Templates hold no compute ops.
// Compute durations are the only times lowering reads, so retiming a
// program lowered from a trace before it was stamped yields exactly the
// program of the stamped trace: Retime(Lower(generated)) equals
// Lower(stamped). src must be the trace the program was lowered from.
func (p *Program) Retime(src trace.Source) {
	var e trace.Event
	for r, ops := range p.ops {
		for i := range ops {
			if op := &ops[i]; op.Kind == RopCompute {
				src.EventAt(r, i, &e)
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
