package mfact

import (
	"fmt"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/trace"
)

// The sequential replayer executes the trace as a dataflow: each rank
// runs until it blocks on an unmatched receive, an incomplete wait, or
// a collective whose members have not all arrived; matching events wake
// blocked ranks through a worklist. The result is deterministic and
// identical to that of the goroutine-per-rank reference replayer the
// tests hold it to (parallel_test.go).
//
// It walks the trace's lowered program (mpisim.Program, the one the
// simulators replay), which has one op per trace event. Every
// point-to-point, compute and wait op already carries a dense
// matching-channel id and dense request ids, so matching indexes flat
// arrays instead of hashing (src, dst, tag, comm) keys; a collective
// op's template header says which collective it is, and MFACT costs it
// with its formulas instead of running the template's rounds. The
// trace's events are never read. Message records, request states,
// collective instances and clock vectors all live in session-owned
// arrays addressed by int32 handles and recycled through free lists, so
// a replay in steady state allocates nothing per event; recycled
// vectors are fully overwritten before use (snapshot copies,
// recvArrivalInto writes every element), keeping values bit-identical
// to the allocate-always reference.

// vecArena holds clock vectors of length k in fixed-size slabs, so a
// handle stays valid while the arena grows. Handle 0 means "no vector".
type vecArena struct {
	k     int
	slabs [][]simtime.Time
	free  []int32
	next  int32 // the lowest handle never handed out
}

const (
	slabShift = 8 // 256 vectors per slab
	slabMask  = 1<<slabShift - 1
)

// reset forgets every handle for a replay with vectors of length k,
// keeping the slabs when k is unchanged.
func (a *vecArena) reset(k int) {
	if a.k != k {
		a.k, a.slabs = k, a.slabs[:0]
	}
	a.free, a.next = a.free[:0], 1
}

// get returns a vector handle. The vector is NOT zeroed; every
// producer fully overwrites it.
func (a *vecArena) get() int32 {
	if n := len(a.free); n > 0 {
		h := a.free[n-1]
		a.free = a.free[:n-1]
		return h
	}
	h := a.next
	a.next++
	if int(h>>slabShift) == len(a.slabs) {
		a.slabs = append(a.slabs, make([]simtime.Time, a.k<<slabShift))
	}
	return h
}

func (a *vecArena) put(h int32) {
	if h != 0 {
		a.free = append(a.free, h)
	}
}

// vec returns the vector of handle h (nil for 0).
func (a *vecArena) vec(h int32) []simtime.Time {
	if h == 0 {
		return nil
	}
	i := int(h&slabMask) * a.k
	return a.slabs[h>>slabShift][i : i+a.k : i+a.k]
}

// msg is a send queued on its channel for a receive to come, or a
// posted receive (a waiter) queued for a send. A channel's queue holds
// one kind at a time: an arriving op first matches the other kind.
type msg struct {
	bytes  int64 // a waiter's receive size
	post   int32 // the send's post clock; a waiter's is set when matched
	next   int32 // the message queued after this one on its channel
	rank   int32 // a waiter's receiving rank
	send   bool
	filled bool // a waiter has been matched
}

// queue is one matching channel's FIFO of msg handles (0 = empty).
type queue struct{ head, tail int32 }

// reqState is one of a rank's nonblocking requests: its completion
// clock once known, or the waiter a receive request is still pending on.
type reqState struct{ arr, pend int32 }

// collInst is one collective instance's rendezvous. Members of a
// communicator are never more than one instance apart — a member
// registers at the next instance only after applying this one, and the
// next cannot complete before every member has — so two slots per
// communicator, indexed by sequence parity, hold every live instance.
type collInst struct {
	arrived, applied    int32
	maxEntry, rootEntry int32 // vector handles
}

type seqRank struct {
	pc      int32 // next program op, which is the next trace event
	reqBase int32 // the rank's first reqState
	recvBuf int32 // waiter of a pending blocking receive
	inColl  bool  // registered at the collective at pc
	queued  bool
	done    bool
}

// replayer is the sequential replayer's reusable state; a Session
// keeps one so a worker's replays amortize every allocation.
type replayer struct {
	vecs     vecArena
	msgs     []msg
	freeMsgs []int32
	chans    []queue
	reqs     []reqState
	colls    []collInst
	collSeq  []int32 // rank-major: collSeq[r*comms+c]
	ranks    []seqRank
	work     []int32 // ring of queued ranks; each rank is queued at most once
}

// resize returns s with length n, reusing its array when large enough
// and zeroing it either way.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func (rp *replayer) newMsg(m msg) int32 {
	if n := len(rp.freeMsgs); n > 0 {
		h := rp.freeMsgs[n-1]
		rp.freeMsgs = rp.freeMsgs[:n-1]
		rp.msgs[h] = m
		return h
	}
	rp.msgs = append(rp.msgs, m)
	return int32(len(rp.msgs) - 1)
}

func (rp *replayer) freeMsg(h int32) { rp.freeMsgs = append(rp.freeMsgs, h) }

// enqueue appends message h to channel ch.
func (rp *replayer) enqueue(ch int32, h int32) {
	q := &rp.chans[ch]
	if q.head == 0 {
		q.head = h
	} else {
		rp.msgs[q.tail].next = h
	}
	q.tail = h
	rp.msgs[h].next = 0
}

// dequeue removes the oldest message of channel ch if it is a send
// (wantSend) or a waiter (!wantSend), returning 0 otherwise.
func (rp *replayer) dequeue(ch int32, wantSend bool) int32 {
	q := &rp.chans[ch]
	h := q.head
	if h == 0 || rp.msgs[h].send != wantSend {
		return 0
	}
	q.head = rp.msgs[h].next
	return h
}

func (rp *replayer) replay(src trace.Source, prog *mpisim.Program, mach *machine.Config, configs []NetConfig) (*state, error) {
	if err := prog.Fits(src); err != nil {
		return nil, fmt.Errorf("mfact: %w", err)
	}
	n := src.TraceMeta().NumRanks
	st := newState(n, newCostModel(mach, configs))
	comms := src.TraceComms()
	nc := comms.Len()

	rp.vecs.reset(st.K)
	rp.msgs, rp.freeMsgs = append(rp.msgs[:0], msg{}), rp.freeMsgs[:0] // handle 0 is "none"
	rp.chans = resize(rp.chans, prog.NumChans())
	rp.colls = resize(rp.colls, 2*nc)
	rp.collSeq = resize(rp.collSeq, n*nc)
	rp.ranks = resize(rp.ranks, n)
	totalReqs := int32(0)
	for r := range rp.ranks {
		rp.ranks[r].reqBase = totalReqs
		totalReqs += prog.AppRequests(r)
	}
	rp.reqs = resize(rp.reqs, int(totalReqs))
	rp.work = resize(rp.work, n)
	head, queued := 0, 0
	push := func(r int32) {
		if rs := &rp.ranks[r]; !rs.queued && !rs.done {
			rs.queued = true
			rp.work[(head+queued)%n] = r
			queued++
		}
	}
	for r := 0; r < n; r++ {
		push(int32(r))
	}

	vecs := &rp.vecs
	// snapshot clones rank r's clock vector.
	snapshot := func(r int32) int32 {
		h := vecs.get()
		copy(vecs.vec(h), st.clocks[r])
		return h
	}
	// arrival returns the arrival vector of a message sent at post and
	// received as a bytes-sized receive, releasing post.
	arrival := func(post int32, bytes int64) int32 {
		h := vecs.get()
		recvArrivalInto(vecs.vec(h), st, vecs.vec(post), bytes)
		vecs.put(post)
		return h
	}

	for queued > 0 {
		rid := rp.work[head]
		head = (head + 1) % n
		queued--
		rs := &rp.ranks[rid]
		rs.queued = false
		ops := prog.Rank(int(rid))
		reqs := rp.reqs[rs.reqBase:]

	rankLoop:
		for int(rs.pc) < len(ops) {
			op := &ops[rs.pc]
			switch op.Kind {
			case mpisim.RopCollective:
				if !rp.collective(st, comms, rid, prog.Collective(int(rid), op), push, snapshot) {
					break rankLoop
				}

			case mpisim.RopCompute:
				st.applyCompute(rid, op.Dur())

			case mpisim.RopSend, mpisim.RopIsend:
				post := snapshot(rid)
				// Fill the first waiting receiver, else queue the send.
				if w := rp.dequeue(op.Ch, false); w != 0 {
					rp.msgs[w].post, rp.msgs[w].filled = post, true
					push(rp.msgs[w].rank)
				} else {
					rp.enqueue(op.Ch, rp.newMsg(msg{post: post, send: true}))
				}
				st.applySend(rid, op.Bytes(), op.Kind == mpisim.RopSend)
				if op.Kind == mpisim.RopIsend {
					// The send cost was charged inline; the request is
					// complete as of the current clock.
					reqs[op.Req] = reqState{arr: snapshot(rid)}
				}

			case mpisim.RopRecv:
				if rs.recvBuf == 0 {
					if s := rp.dequeue(op.Ch, true); s != 0 {
						arr := arrival(rp.msgs[s].post, op.Bytes())
						rp.freeMsg(s)
						st.applyRecvArrival(rid, vecs.vec(arr), op.Bytes())
						vecs.put(arr)
						break // proceed to the next op
					}
					rs.recvBuf = rp.newMsg(msg{rank: rid, bytes: op.Bytes()})
					rp.enqueue(op.Ch, rs.recvBuf)
					break rankLoop
				}
				w := &rp.msgs[rs.recvBuf]
				if !w.filled {
					break rankLoop
				}
				arr := arrival(w.post, op.Bytes())
				rp.freeMsg(rs.recvBuf)
				rs.recvBuf = 0
				st.applyRecvArrival(rid, vecs.vec(arr), op.Bytes())
				vecs.put(arr)

			case mpisim.RopIrecv:
				if s := rp.dequeue(op.Ch, true); s != 0 {
					reqs[op.Req] = reqState{arr: arrival(rp.msgs[s].post, op.Bytes())}
					rp.freeMsg(s)
				} else {
					w := rp.newMsg(msg{rank: rid, bytes: op.Bytes()})
					rp.enqueue(op.Ch, w)
					reqs[op.Req] = reqState{pend: w}
				}
				st.applyCall(rid)

			case mpisim.RopWait:
				ids := prog.Waits(op)
				// First resolve any pendings that have been filled.
				ready := true
				for _, id := range ids {
					rq := &reqs[id]
					if rq.arr != 0 {
						continue
					}
					if rq.pend != 0 && rp.msgs[rq.pend].filled {
						w := &rp.msgs[rq.pend]
						rq.arr = arrival(w.post, w.bytes)
						rp.freeMsg(rq.pend)
						rq.pend = 0
					} else {
						ready = false
					}
				}
				if !ready {
					break rankLoop
				}
				// Fold the arrivals, reusing the first vector as the
				// accumulator and releasing the rest.
				acc := int32(0)
				for _, id := range ids {
					rq := &reqs[id]
					if acc == 0 {
						acc = rq.arr
					} else {
						av, rv := vecs.vec(acc), vecs.vec(rq.arr)
						for k := range av {
							av[k] = simtime.Max(av[k], rv[k])
						}
						vecs.put(rq.arr)
					}
					rq.arr = 0
				}
				st.applyWait(rid, vecs.vec(acc))
				vecs.put(acc)
			}
			rs.pc++
		}
		if int(rs.pc) >= len(ops) {
			rs.done = true
		}
	}

	for r := range rp.ranks {
		if rs := &rp.ranks[r]; !rs.done {
			return nil, fmt.Errorf("mfact: deadlock: rank %d stuck at event %d/%d", r, rs.pc, src.RankLen(r))
		}
	}
	return st, nil
}

// collective registers rank rid at the collective e (once) and applies
// it when every member has arrived. It reports whether the rank may
// proceed past the event.
func (rp *replayer) collective(st *state, comms *trace.CommTable, rid int32, e *mpisim.Collective,
	push func(int32), snapshot func(int32) int32) bool {
	nMembers := comms.Size(e.Comm)
	if nMembers <= 1 {
		st.applyCall(rid)
		return true
	}
	rs := &rp.ranks[rid]
	vecs := &rp.vecs
	seq := &rp.collSeq[int(rid)*comms.Len()+int(e.Comm)]
	inst := &rp.colls[2*int(e.Comm)+int(*seq&1)]
	isRoot := e.Op.IsRooted() && rid == e.Root
	if !rs.inColl {
		// First visit: register our entry.
		entry := snapshot(rid)
		if inst.maxEntry == 0 {
			inst.maxEntry = vecs.get()
			copy(vecs.vec(inst.maxEntry), vecs.vec(entry))
		} else {
			mv, ev := vecs.vec(inst.maxEntry), vecs.vec(entry)
			for k := range mv {
				mv[k] = simtime.Max(mv[k], ev[k])
			}
		}
		if isRoot {
			inst.rootEntry = entry
		} else {
			vecs.put(entry)
		}
		inst.arrived++
		rs.inColl = true
		if int(inst.arrived) == nMembers {
			// Every other member arrived earlier and is blocked here.
			for _, m := range comms.Members(e.Comm) {
				if m != rid {
					push(m)
				}
			}
		}
	}
	if int(inst.arrived) < nMembers {
		return false
	}
	st.applyCollective(rid, e, nMembers, isRoot, vecs.vec(inst.maxEntry), vecs.vec(inst.rootEntry))
	rs.inColl = false
	*seq++
	if inst.applied++; int(inst.applied) == nMembers {
		vecs.put(inst.maxEntry)
		vecs.put(inst.rootEntry)
		*inst = collInst{}
	}
	return true
}

// recvArrivalInto writes into out the arrival vector of a message sent
// at sendPost (without completing a receive op); every element is
// overwritten.
func recvArrivalInto(out []simtime.Time, st *state, sendPost []simtime.Time, bytes int64) []simtime.Time {
	o := st.cm.overhead
	for k := 0; k < st.K; k++ {
		out[k] = sendPost[k] + o + st.cm.alpha[k] + st.cm.xfer(k, bytes)
	}
	return out
}
