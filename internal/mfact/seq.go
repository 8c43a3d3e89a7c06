package mfact

import (
	"fmt"

	"hpctradeoff/internal/machine"
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
// Clock vectors ([]simtime.Time of length K) are the replayer's only
// per-event allocation, so it recycles them through a free list: a
// vector is released once its reader has consumed it and reallocated
// fully overwritten (snapshot copies, recvArrivalInto writes every
// element), keeping values bit-identical to the allocate-always
// reference.

type chanKey struct {
	src, dst, tag int32
	comm          trace.CommID
}

// seqPending is a receive awaiting its matching send.
type seqPending struct {
	rank     int32
	sendPost []simtime.Time // filled by the matching send
	bytes    int64
	filled   bool
	req      int32 // NoReq for blocking receives
}

type seqChannel struct {
	sends   []seqSend
	waiters []*seqPending
}

type seqSend struct {
	post  []simtime.Time
	bytes int64
}

// seqReq tracks one nonblocking request's completion.
type seqReq struct {
	// arrival is the request's completion clock vector; nil until the
	// match happens (recv) — send requests are filled at post.
	arrival []simtime.Time
	pending *seqPending // for recv requests still awaiting a send
}

type seqRank struct {
	id          int32
	pc          int
	reqs        map[int32]*seqReq
	recvBuf     *seqPending // pending blocking receive
	waitingColl *seqColl    // collective this rank has arrived at
	collSeq     []int       // per-comm collective sequence numbers
	queued      bool
	done        bool
}

type collKey struct {
	comm trace.CommID
	seq  int
}

type seqColl struct {
	arrived   int
	applied   int
	n         int
	maxEntry  []simtime.Time
	rootEntry []simtime.Time
	members   []int32 // blocked members to wake
	complete  bool
}

// vecPool recycles clock vectors of length K. Vectors handed out are
// NOT zeroed; every producer fully overwrites them.
type vecPool struct {
	free [][]simtime.Time
	k    int
}

func (p *vecPool) get() []simtime.Time {
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free = p.free[:n-1]
		return v
	}
	return make([]simtime.Time, p.k)
}

func (p *vecPool) put(v []simtime.Time) {
	if v != nil {
		p.free = append(p.free, v)
	}
}

func replaySequential(src trace.Source, mach *machine.Config, configs []NetConfig, pool *vecPool) (*state, error) {
	st := newState(src.TraceMeta().NumRanks, newCostModel(mach, configs))
	comms := src.TraceComms()
	n := src.TraceMeta().NumRanks
	if pool == nil {
		pool = &vecPool{}
	}
	if pool.k != st.K {
		// Recycled vectors have the wrong length for this sweep; drop
		// them and let get() mint fresh ones.
		pool.free = pool.free[:0]
		pool.k = st.K
	}
	ranks := make([]*seqRank, n)
	for r := 0; r < n; r++ {
		ranks[r] = &seqRank{
			id:      int32(r),
			reqs:    make(map[int32]*seqReq),
			collSeq: make([]int, comms.Len()),
		}
	}
	chans := make(map[chanKey]*seqChannel)
	colls := make(map[collKey]*seqColl)

	work := make([]int32, 0, n)
	push := func(r int32) {
		if !ranks[r].queued && !ranks[r].done {
			ranks[r].queued = true
			work = append(work, r)
		}
	}
	for r := 0; r < n; r++ {
		push(int32(r))
	}

	channelFor := func(k chanKey) *seqChannel {
		ch := chans[k]
		if ch == nil {
			ch = &seqChannel{}
			chans[k] = ch
		}
		return ch
	}

	// snapshot clones rank r's clock vector from the pool.
	snapshot := func(r int32) []simtime.Time {
		v := pool.get()
		copy(v, st.clocks[r])
		return v
	}

	var e trace.Event
	var one [1]int32 // scratch for single-request waits
	for len(work) > 0 {
		rid := work[0]
		work = work[1:]
		rs := ranks[rid]
		rs.queued = false
		m := src.RankLen(int(rid))

	rankLoop:
		for rs.pc < m {
			src.EventAt(int(rid), rs.pc, &e)
			switch e.Op {
			case trace.OpCompute:
				st.applyCompute(rid, e.Duration())

			case trace.OpSend, trace.OpIsend:
				post := snapshot(rid)
				k := chanKey{src: rid, dst: e.Peer, tag: e.Tag, comm: e.Comm}
				ch := channelFor(k)
				// Wake the first waiting receiver, else queue the send.
				if len(ch.waiters) > 0 {
					w := ch.waiters[0]
					ch.waiters = ch.waiters[1:]
					w.sendPost = post
					w.filled = true
					push(w.rank)
				} else {
					ch.sends = append(ch.sends, seqSend{post: post, bytes: e.Bytes})
				}
				st.applySend(rid, e.Bytes, e.Op == trace.OpSend)
				if e.Op == trace.OpIsend {
					// The send cost was charged inline; the request is
					// complete as of the current clock.
					rs.reqs[e.Req] = &seqReq{arrival: snapshot(rid)}
				}

			case trace.OpRecv:
				if rs.recvBuf == nil {
					k := chanKey{src: e.Peer, dst: rid, tag: e.Tag, comm: e.Comm}
					ch := channelFor(k)
					if len(ch.sends) > 0 {
						s := ch.sends[0]
						ch.sends = ch.sends[1:]
						arr := recvArrivalInto(pool.get(), st, s.post, e.Bytes)
						st.applyRecvArrival(rid, arr, e.Bytes)
						pool.put(arr)
						pool.put(s.post)
						break // proceed to pc++
					}
					rs.recvBuf = &seqPending{rank: rid, bytes: e.Bytes, req: trace.NoReq}
					ch.waiters = append(ch.waiters, rs.recvBuf)
					break rankLoop
				}
				if !rs.recvBuf.filled {
					break rankLoop
				}
				arr := recvArrivalInto(pool.get(), st, rs.recvBuf.sendPost, e.Bytes)
				st.applyRecvArrival(rid, arr, e.Bytes)
				pool.put(arr)
				pool.put(rs.recvBuf.sendPost)
				rs.recvBuf = nil

			case trace.OpIrecv:
				k := chanKey{src: e.Peer, dst: rid, tag: e.Tag, comm: e.Comm}
				ch := channelFor(k)
				req := &seqReq{}
				if len(ch.sends) > 0 {
					s := ch.sends[0]
					ch.sends = ch.sends[1:]
					req.arrival = recvArrivalInto(pool.get(), st, s.post, e.Bytes)
					pool.put(s.post)
				} else {
					p := &seqPending{rank: rid, bytes: e.Bytes, req: e.Req}
					ch.waiters = append(ch.waiters, p)
					req.pending = p
				}
				rs.reqs[e.Req] = req
				st.applyCall(rid)

			case trace.OpWait, trace.OpWaitall:
				ids := e.Reqs
				if e.Op == trace.OpWait {
					one[0] = e.Req
					ids = one[:]
				}
				// First resolve any pendings that have been filled.
				ready := true
				for _, id := range ids {
					rq := rs.reqs[id]
					if rq == nil {
						return nil, fmt.Errorf("mfact: rank %d wait on unknown request %d", rid, id)
					}
					if rq.arrival == nil {
						if rq.pending != nil && rq.pending.filled {
							rq.arrival = recvArrivalInto(pool.get(), st, rq.pending.sendPost, rq.pending.bytes)
							pool.put(rq.pending.sendPost)
							rq.pending = nil
						} else {
							ready = false
						}
					}
				}
				if !ready {
					break rankLoop
				}
				// Fold the arrivals, reusing the first vector as the
				// accumulator and releasing the rest.
				var acc []simtime.Time
				for _, id := range ids {
					rq := rs.reqs[id]
					if acc == nil {
						acc = rq.arrival
					} else {
						for k := range acc {
							acc[k] = simtime.Max(acc[k], rq.arrival[k])
						}
						pool.put(rq.arrival)
					}
					delete(rs.reqs, id)
				}
				st.applyWait(rid, acc)
				pool.put(acc)

			default: // collectives
				if !e.Op.IsCollective() {
					return nil, fmt.Errorf("mfact: rank %d event %d: unsupported op %v", rid, rs.pc, e.Op)
				}
				nMembers := comms.Size(e.Comm)
				if nMembers <= 1 {
					st.applyCall(rid)
					break
				}
				seq := rs.collSeq[e.Comm]
				ck := collKey{e.Comm, seq}
				inst := colls[ck]
				if inst == nil {
					inst = &seqColl{n: nMembers}
					colls[ck] = inst
				}
				if rs.waitingColl != inst {
					// First visit: register our entry.
					entry := snapshot(rid)
					if inst.maxEntry == nil {
						inst.maxEntry = pool.get()
						copy(inst.maxEntry, entry)
					} else {
						for k := range inst.maxEntry {
							inst.maxEntry[k] = simtime.Max(inst.maxEntry[k], entry[k])
						}
					}
					if e.Op.IsRooted() && rid == e.Root {
						inst.rootEntry = entry
					} else {
						pool.put(entry)
					}
					inst.arrived++
					inst.members = append(inst.members, rid)
					rs.waitingColl = inst
					if inst.arrived == inst.n {
						inst.complete = true
						for _, m := range inst.members {
							if m != rid {
								push(m)
							}
						}
					}
				}
				if !inst.complete {
					break rankLoop
				}
				st.applyCollective(rid, &e, nMembers, e.Op.IsRooted() && rid == e.Root, inst.maxEntry, inst.rootEntry)
				rs.waitingColl = nil
				rs.collSeq[e.Comm]++
				inst.applied++
				if inst.applied == inst.n {
					pool.put(inst.maxEntry)
					pool.put(inst.rootEntry)
					delete(colls, ck)
				}
			}
			rs.pc++
		}
		if rs.pc >= m {
			rs.done = true
		}
	}

	for _, rs := range ranks {
		if !rs.done {
			return nil, fmt.Errorf("mfact: deadlock: rank %d stuck at event %d/%d", rs.id, rs.pc, src.RankLen(int(rs.id)))
		}
	}
	return st, nil
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
