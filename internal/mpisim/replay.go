package mpisim

import (
	"errors"
	"fmt"
	"time"

	"hpctradeoff/internal/des"
	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/simnet"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/trace"
)

// ErrDeadlock is wrapped by replay errors reporting that ranks got
// permanently stuck (unmatched sends/receives, circular waits).
var ErrDeadlock = errors.New("mpisim: deadlock")

// ErrUnknownRequest is wrapped by lowering errors reporting a wait on
// a request id that was never posted by an isend/irecv — a malformed
// trace rather than a simulator failure.
var ErrUnknownRequest = errors.New("mpisim: wait on unknown request")

// Perturber injects nondeterministic-looking (but seeded) system
// effects into a replay. The ground-truth executor uses one to make the
// "measured" times in generated traces include OS noise and software
// overhead jitter that prediction replays (which run without a
// Perturber) cannot see — mirroring how real measured times exceed
// trace-replay predictions in the paper.
type Perturber interface {
	// Compute returns the perturbed duration of a compute interval.
	Compute(rank int32, ev int32, d simtime.Time) simtime.Time
	// Overhead returns extra per-call software overhead for one MPI
	// operation on the given rank.
	Overhead(rank int32) simtime.Time
}

// Background describes neighbor-job interference traffic injected into
// the network while the trace replays. The paper (§II-C) points out
// that inter-job interference is exactly the scenario where simulation
// beats modeling — a model has no way to see another job's traffic on
// shared links. Sources fire periodic messages between pseudo-random
// endpoints for as long as the application runs.
type Background struct {
	// Sources is the number of concurrent background streams.
	Sources int
	// MsgBytes is the size of each background message.
	MsgBytes int64
	// Interval is each source's injection period (jittered ±50%).
	Interval simtime.Time
	// Seed drives endpoint and jitter selection.
	Seed int64
}

// Options configure a replay.
type Options struct {
	// CompScale scales recorded compute durations (1.0 = as recorded;
	// the tools' what-if knob for faster/slower processors). Zero means
	// 1.0.
	CompScale float64
	// Perturb, when non-nil, injects noise (ground-truth executor mode).
	Perturb Perturber
	// Record, when true, writes the replayed entry/exit times back into
	// the trace (used to stamp ground-truth timestamps).
	Record bool
	// Background, when non-nil, injects neighbor-job traffic that
	// contends for the same network links.
	Background *Background

	// MaxEvents caps the number of DES events the replay may execute;
	// past the cap Replay fails with an error wrapping
	// des.ErrBudgetExceeded. Zero means unlimited. This is the campaign
	// layer's defense against runaway or livelocked replays. The cap
	// counts logical events, Result.Events, not pops: a request
	// completion the replay keys instead of queueing counts from the
	// moment its key is reserved (des.Budget).
	MaxEvents uint64
	// Deadline is a wall-clock cutoff for the replay (zero value means
	// none); it is polled periodically on the event loop.
	Deadline time.Time
	// Cancel, when non-nil, stops the replay when closed: a watcher
	// calls the engine's Stop(), the run halts at its next scheduling
	// boundary, and Replay fails with an error wrapping
	// des.ErrCanceled. This is how a signal handler shuts a campaign
	// down without losing journaled results.
	Cancel <-chan struct{}
}

// Result carries the outcome of one replay.
type Result struct {
	// Model is the network model used.
	Model simnet.Model
	// Total is the predicted application time (latest rank finish).
	Total simtime.Time
	// Comm is the predicted communication time, averaged over ranks.
	Comm simtime.Time
	// RankFinish and RankComm are the per-rank breakdowns.
	RankFinish []simtime.Time
	RankComm   []simtime.Time
	// Events is the number of DES events the replay executed: every
	// logical event, whether the engine popped it or the replay kept
	// only its key (des.Engine.Steps).
	Events uint64
	// Popped is the part of Events the engine took off its queue, the
	// heap work a replay pays for.
	Popped uint64
	// PeakPending is the most events the engine's queue ever held at
	// once (des.Engine.PeakPending): how deep the heap got, which sets
	// what each pop costs.
	PeakPending int
	// Net reports the network model's cost counters.
	Net simnet.Stats
}

// Replay runs src through the given network model on machine mach and
// returns predictions. The trace must be valid (Columns.Validate). It
// is stateless: a throwaway Session.
func Replay(src trace.Source, model simnet.Model, mach *machine.Config, netCfg simnet.Config, opts Options) (*Result, error) {
	return NewSession().Replay(src, model, mach, netCfg, opts)
}

// Replay is the package-level Replay drawing its arenas and matching state — and,
// after the first call since Reset, its lowered program — from the
// session.
func (sess *Session) Replay(src trace.Source, model simnet.Model, mach *machine.Config, netCfg simnet.Config, opts Options) (*Result, error) {
	meta := src.TraceMeta()
	if !simnet.Supports(model, meta.UsesCommSplit, meta.UsesThreadMultiple) {
		return nil, fmt.Errorf("%w: %s on %s", simnet.ErrUnsupportedTrace, model, meta.ID())
	}
	if len(mach.NodeOf) < meta.NumRanks {
		return nil, fmt.Errorf("mpisim: machine hosts %d ranks, trace has %d", len(mach.NodeOf), meta.NumRanks)
	}
	prog, err := sess.program(src, opts.Record)
	if err != nil {
		return nil, err
	}
	eng := &des.Engine{}
	net, err := simnet.New(model, eng, mach, netCfg)
	if err != nil {
		return nil, err
	}
	d := &driver{
		eng:  eng,
		net:  net,
		mach: mach,
		src:  src,
		prog: prog,
		opts: opts,
		sess: sess,
	}
	sess.d = d
	defer func() { sess.d = nil }()
	if d.opts.CompScale == 0 {
		d.opts.CompScale = 1
	}
	if opts.MaxEvents > 0 || !opts.Deadline.IsZero() {
		eng.SetBudget(des.Budget{MaxEvents: opts.MaxEvents, Deadline: opts.Deadline})
	}
	if opts.Cancel != nil {
		select {
		case <-opts.Cancel:
			// Already canceled: stop before the first event rather than
			// race a watcher against a short replay.
			eng.Stop()
		default:
			// The watcher routes external cancellation through the
			// engine's cooperative Stop path; done unblocks it when the
			// replay ends on its own.
			done := make(chan struct{})
			defer close(done)
			go func() {
				select {
				case <-opts.Cancel:
					eng.Stop()
				case <-done:
				}
			}()
		}
	}
	d.run()
	// A blown budget must be reported before the finish check: a
	// truncated run always looks deadlocked.
	if err := eng.Err(); err != nil {
		return nil, fmt.Errorf("mpisim: replay of %s on %s aborted after %d events: %w",
			meta.ID(), model, eng.Steps(), err)
	}
	if err := d.checkFinished(); err != nil {
		return nil, err
	}
	if opts.Record {
		d.writeBack()
	}
	var comm simtime.Time
	for _, c := range d.rankComm {
		comm += c
	}
	n := simtime.Time(max(1, meta.NumRanks))
	var total simtime.Time
	for _, f := range d.finish {
		total = simtime.Max(total, f)
	}
	return &Result{
		Model:       model,
		Total:       total,
		Comm:        comm / n,
		RankFinish:  d.finish,
		RankComm:    d.rankComm,
		Events:      eng.Steps(),
		Popped:      eng.Popped(),
		PeakPending: eng.PeakPending(),
		Net:         net.Stats(),
	}, nil
}

// sendRec is one send from posting to completion. A session recycles
// records through a free list, so the three continuations a send hands
// to the engine and the network are bound once, when the record is
// first made, instead of minted per message. A record points at its
// session and at nothing of any one replay (ranks are ids), so the
// free lists pin no finished replay's state.
//
// An eager send passes three milestones in no fixed order — matched
// with a receive, payload delivered, sender released at injection end
// (passed at posting for an isend, whose release is only a key) — and
// is recycled after the last. A rendezvous send is linear: it
// transfers only once matched, and delivery completes both sides.
type sendRec struct {
	sess     *Session
	src, dst int32
	req      int32 // request the send completes; blockingOp for a blocking send
	bytes    int64
	eager    bool
	// delivered and rv track an eager send's payload and its paired
	// receive (nil until matched); whichever comes second completes the
	// receive. ahead counts the milestones an eager send has left.
	delivered bool
	ahead     int8
	rv        *recvRec

	injectFn, deliveredFn, senderDoneFn, injectStepFn func()
}

// recvRec is one posted receive: once matched and delivered it
// completes req on rank (or resumes rank from a blocking receive).
type recvRec struct {
	sess       *Session
	rank       int32
	req        int32
	completeFn func()
}

// blockingOp in a record's req marks a blocking send or receive: its
// completion resumes the rank instead of completing a request.
const blockingOp int32 = -1

// waitingReq in rankState.reqs marks a request the current wait needs
// whose completion has no key yet.
const waitingReq int32 = -1

type rankState struct {
	id  int32
	ops []Rop
	pc  int
	// A collective op runs its template as a one-level sub-program: sub
	// is the template's rounds (nil outside one) and spc the next of
	// them, and reqBase, the instance's request base (0 outside one), is
	// added to every round's request ids. pc stays at the instance, so
	// a round's event is the instance's.
	sub     []Rop
	spc     int
	reqBase int32
	// Request state is tracked in a flat array indexed by the replay
	// request id (lowering renumbers densely from 0). A nonblocking
	// completion is not an event but a key (DESIGN.md §9, "Keys, not
	// pops"), and a request is complete once its key is at or before
	// the running event. reqs[q] is 0 while q's completion has no key,
	// waitingReq when the current wait needs q and q has no key yet,
	// and otherwise names the slot of the driver's key pool that holds
	// q's key until a wait takes it. nwait counts the waiting requests,
	// and waitKey is the latest completion key the wait has seen, where
	// it drains.
	reqs    []int32
	nwait   int
	waitKey des.Key
	opStart simtime.Time
	waitEv  int32 // event of the wait currently blocking, for exit recording
	// stepEv is the event whose compute or overhead step is in flight,
	// -1 when none: its exit is recorded when the step ends.
	stepEv  int32
	blocked bool
	finish  simtime.Time
	fin     bool
	// stepFn is the rank's pre-bound continuation, reused for every
	// compute and overhead step (and the rank's start), so the hot path
	// never mints a closure per replayed event; resumeFn drains a wait
	// at its queued key.
	stepFn, resumeFn func()
}

type driver struct {
	eng  *des.Engine
	net  simnet.Network
	mach *machine.Config
	src  trace.Source
	prog *Program
	opts Options
	sess *Session

	ranks         []*rankState
	chans         []channel // indexed by Rop.Ch
	rankComm      []simtime.Time
	finish        []simtime.Time
	finishedRanks int

	// Per-rank, per-original-event first-start and last-finish times
	// (allocated only when recording).
	entry, exit [][]simtime.Time

	// keys is the pool of completion keys that no wait has taken yet,
	// freeKeys its vacated slots (both lent by the session). A request
	// holds a key only between its completion and its wait, so the pool
	// stays as small as the requests in flight.
	keys     []des.Key
	freeKeys []int32
}

func (d *driver) run() {
	prog := d.prog
	n := prog.NumRanks()
	d.ranks = make([]*rankState, n)
	d.chans = d.sess.channels(prog.NumChans())
	d.rankComm = make([]simtime.Time, n)
	d.finish = make([]simtime.Time, n)
	if d.opts.Record {
		d.entry = make([][]simtime.Time, n)
		d.exit = make([][]simtime.Time, n)
		for r := 0; r < n; r++ {
			d.entry[r] = make([]simtime.Time, prog.EventCount(r))
			d.exit[r] = make([]simtime.Time, prog.EventCount(r))
			for i := range d.entry[r] {
				d.entry[r][i] = -1
			}
		}
	}
	// One session arena backs every rank's request state, and the key
	// pool holds only the keys of completions not yet waited on.
	var totalReqs int32
	for _, c := range prog.reqCount {
		totalReqs += c
	}
	reqs := d.sess.reqStates(int(totalReqs))
	d.keys, d.freeKeys = d.sess.keys[:0], d.sess.freeKeys[:0]
	defer func() { d.sess.keys, d.sess.freeKeys = d.keys, d.freeKeys }()
	for r, off := 0, int32(0); r < n; r++ {
		c := prog.reqCount[r]
		rs := &rankState{
			id:     int32(r),
			ops:    prog.ops[r],
			reqs:   reqs[off : off+c : off+c],
			stepEv: -1,
		}
		off += c
		rs.stepFn = func() { d.stepDone(rs) }
		rs.resumeFn = func() { d.resume(rs, rs.waitEv) }
		d.enter(rs)
		d.ranks[r] = rs
	}
	for _, rs := range d.ranks {
		d.eng.At(0, rs.stepFn)
	}
	if bg := d.opts.Background; bg != nil && bg.Sources > 0 && n >= 2 {
		for s := 0; s < bg.Sources; s++ {
			d.scheduleBackground(bg, uint64(s), 0)
		}
	}
	d.eng.Run()
}

// scheduleBackground fires one background message and reschedules
// itself until every application rank has finished. Endpoints and
// jitter derive deterministically from (seed, source, round).
func (d *driver) scheduleBackground(bg *Background, source, round uint64) {
	if d.finishedRanks >= len(d.ranks) {
		return // the application is done; stop injecting
	}
	n := uint64(len(d.ranks))
	h := bgHash(uint64(bg.Seed), source, round)
	src := int32(h % n)
	dst := int32((h >> 20) % n)
	if dst == src {
		dst = (dst + 1) % int32(n)
	}
	d.net.Send(src, dst, bg.MsgBytes, func() {})
	jitter := 0.5 + float64((h>>40)&0xffff)/65536.0 // 0.5 .. 1.5
	d.eng.After(bg.Interval.Scale(jitter), func() {
		d.scheduleBackground(bg, source, round+1)
	})
}

func bgHash(a, b, c uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9 ^ c*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x
}

func (d *driver) checkFinished() error {
	for _, rs := range d.ranks {
		if !rs.fin {
			op := "end"
			if o := rs.op(); o != nil {
				switch o.Kind {
				case RopCompute:
					op = o.Kind.String()
				case RopWait:
					op = fmt.Sprintf("wait(requests=%d)", o.Ch)
				default:
					op = fmt.Sprintf("%s(peer=%d)", o.Kind, d.prog.peer(o))
				}
			}
			return fmt.Errorf("%w: rank %d stuck at op %d/%d (%s)", ErrDeadlock, rs.id, rs.pc, len(rs.ops), op)
		}
	}
	return nil
}

// overhead returns the per-call software cost for rank r.
func (d *driver) overhead(r int32) simtime.Time {
	o := d.mach.MPIOverhead
	if d.opts.Perturb != nil {
		o += d.opts.Perturb.Overhead(r)
	}
	return o
}

func (d *driver) markEntry(rs *rankState, ev int32) {
	if d.entry != nil && d.entry[rs.id][ev] < 0 {
		d.entry[rs.id][ev] = d.eng.Now()
	}
}

func (d *driver) markExit(rs *rankState, ev int32) {
	if d.exit != nil {
		d.exit[rs.id][ev] = d.eng.Now()
	}
}

// stepDone ends a rank's compute or overhead step — recording the exit
// of the event it belonged to — and advances the rank. It is also the
// rank's start, with no step in flight.
func (d *driver) stepDone(rs *rankState) {
	if rs.stepEv >= 0 {
		d.markExit(rs, rs.stepEv)
		rs.stepEv = -1
	}
	d.advance(rs)
}

// op returns the op rs runs next, nil when it has run them all: the
// round its collective is at, or its own next op.
func (rs *rankState) op() *Rop {
	if rs.sub != nil {
		return &rs.sub[rs.spc]
	}
	if rs.pc < len(rs.ops) {
		return &rs.ops[rs.pc]
	}
	return nil
}

// next moves rs past the op it runs and, into and out of collective
// templates, on to the next op it must run, which op then returns. An
// instance adds no op of its own: entering and leaving its template
// happen here, between ops, so the driver meets the template's rounds
// in place of the instance, exactly as if they were the rank's own
// ops. A single-member collective's template is empty.
func (d *driver) next(rs *rankState) {
	if rs.sub != nil {
		if rs.spc++; rs.spc < len(rs.sub) {
			return
		}
		rs.sub, rs.reqBase = nil, 0
	}
	rs.pc++
	d.enter(rs)
}

// enter steps rs into the template of each collective op it stands
// at, and past each one whose template is empty.
func (d *driver) enter(rs *rankState) {
	for rs.pc < len(rs.ops) && rs.ops[rs.pc].Kind == RopCollective {
		op := &rs.ops[rs.pc]
		t := d.prog.template(rs.id, op)
		if t.opLen > 0 {
			rs.sub, rs.spc, rs.reqBase = d.prog.templateOps(t), 0, op.Req
			return
		}
		rs.pc++
	}
}

// advance executes ops for rs until it blocks or finishes. Called from
// engine context only.
func (d *driver) advance(rs *rankState) {
	for op := rs.op(); op != nil; op = rs.op() {
		now := d.eng.Now()
		ev := int32(rs.pc)
		d.markEntry(rs, ev)
		switch op.Kind {
		case RopCompute:
			dur := op.Dur().Scale(d.opts.CompScale)
			if d.opts.Perturb != nil {
				dur = d.opts.Perturb.Compute(rs.id, ev, dur)
			}
			d.next(rs)
			rs.stepEv = ev
			d.eng.After(dur, rs.stepFn)
			return

		case RopSend:
			rs.opStart = now
			rs.blocked = true
			rs.waitEv = ev
			if s, o := d.postSend(rs, op, blockingOp); s != nil {
				d.eng.After(o, s.injectFn)
			}
			return

		case RopIsend:
			s, o := d.postSend(rs, op, op.Req+rs.reqBase)
			if s == nil {
				d.stepOverhead(rs, ev)
				return
			}
			// The injection and the overhead step are scheduled back
			// to back; when the two overhead draws are equal (always,
			// without a Perturber) they share a time and run as one pop.
			if o2 := d.chargeOverhead(rs, ev); o2 == o {
				d.eng.AtBatch(now+o, 2, s.injectStepFn)
			} else {
				d.eng.After(o, s.injectFn)
				d.eng.After(o2, rs.stepFn)
			}
			return

		case RopRecv:
			rs.opStart = now
			rs.blocked = true
			rs.waitEv = ev
			d.postRecv(rs, op, blockingOp)
			return

		case RopIrecv:
			d.postRecv(rs, op, op.Req+rs.reqBase)
			d.stepOverhead(rs, ev)
			return

		case RopWait:
			// A request whose completion has a key is done if the key
			// is not ahead of the running event, and is otherwise due
			// at the key; the others wait for their keys in complete.
			outstanding := 0
			rs.waitKey = des.Key{}
			for _, q := range d.prog.Waits(op) {
				q += rs.reqBase
				slot := rs.reqs[q]
				if slot <= 0 {
					rs.reqs[q] = waitingReq
					outstanding++
					continue
				}
				rs.reqs[q] = 0
				k := d.keys[slot-1]
				d.freeKeys = append(d.freeKeys, slot)
				if rs.waitKey.Before(k) {
					rs.waitKey = k
				}
			}
			if outstanding == 0 && !d.eng.Current().Before(rs.waitKey) {
				d.stepOverhead(rs, ev)
				return
			}
			rs.nwait = outstanding
			rs.opStart = now
			rs.blocked = true
			rs.waitEv = ev
			if outstanding == 0 {
				// Every completion is keyed and the latest is ahead:
				// the wait drains there.
				d.eng.AtKey(rs.waitKey, rs.resumeFn)
			}
			return
		}
	}
	rs.fin = true
	rs.finish = d.eng.Now()
	d.finish[rs.id] = rs.finish
	d.finishedRanks++
}

// stepOverhead charges one MPI call's software overhead and continues;
// the overhead counts as communication time.
func (d *driver) stepOverhead(rs *rankState, ev int32) {
	d.eng.After(d.chargeOverhead(rs, ev), rs.stepFn)
}

// chargeOverhead draws and charges the overhead step of rs's event ev
// and moves past the op, returning the step's length; the caller
// schedules its end.
func (d *driver) chargeOverhead(rs *rankState, ev int32) simtime.Time {
	o := d.overhead(rs.id)
	d.rankComm[rs.id] += o
	d.next(rs)
	rs.stepEv = ev
	return o
}

// resume unblocks rs after a blocking comm op, charging the blocked
// interval as communication time.
func (d *driver) resume(rs *rankState, ev int32) {
	now := d.eng.Now()
	d.rankComm[rs.id] += now - rs.opStart
	rs.blocked = false
	d.markExit(rs, ev)
	d.next(rs)
	d.advance(rs)
}

// complete gives request req of rs its completion key k: a key
// reserved for a completion still ahead, or the running event's own
// for one that happens in it. A request nobody waits on yet keeps the
// key for its wait to compare. A wait that needed the request drains
// once its last outstanding request has a key, at the latest key it
// has seen: right here if that is the running event, otherwise at that
// key, queued now under its reserved sequence number — the one
// completion of the set that orders anything.
func (d *driver) complete(rs *rankState, req int32, k des.Key) {
	if rs.reqs[req] != waitingReq {
		rs.reqs[req] = d.keepKey(k)
		return
	}
	rs.reqs[req] = 0
	if rs.waitKey.Before(k) {
		rs.waitKey = k
	}
	if rs.nwait--; rs.nwait > 0 {
		return
	}
	if rs.waitKey == d.eng.Current() {
		d.resume(rs, rs.waitEv)
	} else {
		d.eng.AtKey(rs.waitKey, rs.resumeFn)
	}
}

// keepKey stores k in the key pool and returns its slot, counted from 1.
func (d *driver) keepKey(k des.Key) int32 {
	if n := len(d.freeKeys); n > 0 {
		slot := d.freeKeys[n-1]
		d.freeKeys = d.freeKeys[:n-1]
		d.keys[slot-1] = k
		return slot
	}
	d.keys = append(d.keys, k)
	return int32(len(d.keys))
}

// opDone completes a send or receive on its rank in the running event:
// a blocking op (the rank has been parked on it since posting, waitEv
// naming its event) resumes the rank, a nonblocking one completes its
// request.
func (d *driver) opDone(rank, req int32) {
	rs := d.ranks[rank]
	if req == blockingOp {
		d.resume(rs, rs.waitEv)
	} else {
		d.complete(rs, req, d.eng.Current())
	}
}

// newSend takes a send record from the free list, or makes one and
// binds its continuations.
func (sess *Session) newSend() *sendRec {
	if n := len(sess.freeSends); n > 0 {
		s := sess.freeSends[n-1]
		sess.freeSends = sess.freeSends[:n-1]
		return s
	}
	s := &sendRec{sess: sess}
	s.injectFn, s.deliveredFn, s.senderDoneFn = s.inject, s.onDelivered, s.onSenderDone
	s.injectStepFn = s.injectThenStep
	return s
}

// newRecv is newSend for receive records.
func (sess *Session) newRecv() *recvRec {
	if n := len(sess.freeRecvs); n > 0 {
		rv := sess.freeRecvs[n-1]
		sess.freeRecvs = sess.freeRecvs[:n-1]
		return rv
	}
	rv := &recvRec{sess: sess}
	rv.completeFn = rv.complete
	return rv
}

// postSend starts the send protocol for op on rank rs. The send
// operation (not necessarily the delivery) completes req, or resumes
// the rank for blockingOp: at injection end for eager, at delivery for
// rendezvous. An eager send returns its record and software overhead
// o, and the caller schedules the injection at o from now, as the next
// event it schedules.
func (d *driver) postSend(rs *rankState, op *Rop, req int32) (*sendRec, simtime.Time) {
	s := d.sess.newSend()
	s.src, s.dst, s.req, s.bytes = rs.id, d.prog.chans[op.Ch].dst, req, op.Bytes()
	s.eager = s.bytes <= d.mach.EagerThreshold
	s.delivered, s.rv = false, nil
	// Drawn for rendezvous sends too: a Perturber's overhead is a
	// per-rank sequence, and every posted send takes one draw.
	o := d.overhead(rs.id)
	var eager *sendRec
	if s.eager {
		// Sender completes after the local injection cost, independent
		// of matching; the payload travels immediately. A blocking
		// sender resumes then; an isend's completion is only a key.
		s.ahead = 3
		done := d.eng.Now() + o + simtime.TransferTime(s.bytes, d.mach.InjectionBandwidth)
		if req == blockingOp {
			d.eng.At(done, s.senderDoneFn)
		} else {
			s.passed()
			d.complete(rs, req, d.eng.Reserve(done))
		}
		eager = s
	}
	// Match in posting order. An eager send is undelivered until its
	// injection, so matching schedules nothing and the injection keeps
	// the sequence number after the completion's.
	ch := &d.chans[op.Ch]
	if !ch.recvs.empty() {
		d.pair(s, ch.recvs.pop())
	} else {
		ch.sends.push(s)
	}
	return eager, o
}

// postRecv posts a receive, which completes req (or resumes the rank
// for blockingOp) when the payload has arrived and been matched.
func (d *driver) postRecv(rs *rankState, op *Rop, req int32) {
	rv := d.sess.newRecv()
	rv.rank, rv.req = rs.id, req
	ch := &d.chans[op.Ch]
	if !ch.sends.empty() {
		d.pair(ch.sends.pop(), rv)
	} else {
		ch.recvs.push(rv)
	}
}

// pair links a send with its matching receive and, for rendezvous
// sends, starts the deferred transfer.
func (d *driver) pair(s *sendRec, rv *recvRec) {
	s.rv = rv
	if s.eager {
		if s.delivered {
			d.completeRecv(rv)
		}
		s.passed()
		return
	}
	// Rendezvous: the transfer begins only now that both sides are
	// ready (the handshake cost is folded into the NIC/MPI overheads).
	d.net.Send(s.src, s.dst, s.bytes, s.deliveredFn)
}

// inject hands an eager send's payload to the network, one software
// overhead after posting.
func (s *sendRec) inject() {
	s.sess.d.net.Send(s.src, s.dst, s.bytes, s.deliveredFn)
}

// onDelivered is the network's delivery callback.
func (s *sendRec) onDelivered() {
	d := s.sess.d
	if s.eager {
		s.delivered = true
		if s.rv != nil {
			d.completeRecv(s.rv)
		}
		s.passed()
		return
	}
	d.completeRecv(s.rv)
	src, req := s.src, s.req
	s.recycle()
	d.opDone(src, req)
}

// injectThenStep runs an eager isend's injection and then its rank's
// overhead step: the two events of a batch.
func (s *sendRec) injectThenStep() {
	d := s.sess.d
	rs := d.ranks[s.src]
	s.inject()
	d.stepDone(rs)
}

// onSenderDone releases a blocking eager sender at injection end.
func (s *sendRec) onSenderDone() {
	d, src, req := s.sess.d, s.src, s.req
	s.passed()
	d.opDone(src, req)
}

// passed counts off one milestone of an eager send and recycles the
// record after the last.
func (s *sendRec) passed() {
	if s.ahead--; s.ahead == 0 {
		s.recycle()
	}
}

func (s *sendRec) recycle() {
	s.sess.freeSends = append(s.sess.freeSends, s)
}

// completeRecv finishes a matched, delivered receive after the
// receiver-side software overhead: a blocking receive resumes its rank
// then, a nonblocking one completes its request under a reserved key.
func (d *driver) completeRecv(rv *recvRec) {
	o := d.overhead(rv.rank)
	if rv.req == blockingOp {
		d.eng.After(o, rv.completeFn)
		return
	}
	rank, req := rv.rank, rv.req
	d.sess.freeRecvs = append(d.sess.freeRecvs, rv)
	d.complete(d.ranks[rank], req, d.eng.Reserve(d.eng.Now()+o))
}

// complete recycles the record and resumes its rank from a blocking
// receive.
func (rv *recvRec) complete() {
	sess, rank, req := rv.sess, rv.rank, rv.req
	sess.freeRecvs = append(sess.freeRecvs, rv)
	sess.d.opDone(rank, req)
}

// writeBack stamps the replayed entry/exit times into the trace.
func (d *driver) writeBack() {
	for r := range d.entry {
		cursor := simtime.Time(0)
		for i := range d.entry[r] {
			en, ex := d.entry[r][i], d.exit[r][i]
			if en < 0 {
				// Event never started (cannot happen after a finished
				// replay); keep monotonicity anyway.
				en = cursor
			}
			if en < cursor {
				en = cursor
			}
			if ex < en {
				ex = en
			}
			d.src.SetEventTimes(r, i, en, ex)
			cursor = ex
		}
	}
}
