package mfact

import (
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/trace"
)

// state holds the logical clocks and counters of a replay in progress.
// Rank r's rows are touched only by the code replaying rank r, so the
// goroutine-per-rank reference replayer of the tests shares one state
// without locking.
type state struct {
	cm *costModel
	K  int
	// clocks[r][k] is rank r's logical clock under config k.
	clocks [][]simtime.Time
	// cnt[r][k] are rank r's counters under config k.
	cnt [][]Counters
	// comm[r][k] is rank r's accumulated communication time.
	comm   [][]simtime.Time
	events []int // per-rank event counts (summed at the end)
}

func newState(n int, cm *costModel) *state {
	st := &state{
		cm: cm, K: cm.K,
		clocks: make([][]simtime.Time, n),
		cnt:    make([][]Counters, n),
		comm:   make([][]simtime.Time, n),
		events: make([]int, n),
	}
	for r := 0; r < n; r++ {
		st.clocks[r] = make([]simtime.Time, cm.K)
		st.cnt[r] = make([]Counters, cm.K)
		st.comm[r] = make([]simtime.Time, cm.K)
	}
	return st
}

// applyCompute advances rank r by a scaled computation interval.
func (st *state) applyCompute(r int32, dur simtime.Time) {
	st.events[r]++
	for k := 0; k < st.K; k++ {
		d := dur.Scale(st.cm.comp[k])
		st.clocks[r][k] += d
		st.cnt[r][k].Compute += d
	}
}

// applySend advances rank r past a send. A blocking send occupies the
// sender for the call overhead plus the wire serialization (the
// Hockney o + b/β); a nonblocking send only pays the call overhead —
// its injection overlaps with whatever follows, which is the point of
// MPI_Isend and what the simulators' concurrent NIC reproduces.
func (st *state) applySend(r int32, bytes int64, blocking bool) {
	st.events[r]++
	o := st.cm.overhead
	for k := 0; k < st.K; k++ {
		d := o
		if blocking {
			b := st.cm.xfer(k, bytes)
			d += b
			st.cnt[r][k].Bandwidth += b
		}
		st.clocks[r][k] += d
		st.cnt[r][k].Latency += o
		st.comm[r][k] += d
	}
}

// applyRecvArrival completes a blocking receive on rank r whose
// matched message arrives at the given vector (arrival = sender post +
// o + α' + bytes/β', see recvArrivalInto). The receive completes at
// max(own, arrival) + o; wait is charged for sender lateness.
func (st *state) applyRecvArrival(r int32, arrival []simtime.Time, bytes int64) {
	st.events[r]++
	o := st.cm.overhead
	for k := 0; k < st.K; k++ {
		entry := st.clocks[r][k]
		b := st.cm.xfer(k, bytes)
		end := simtime.Max(entry, arrival[k]) + o
		st.clocks[r][k] = end
		st.cnt[r][k].Latency += st.cm.alpha[k] + o
		st.cnt[r][k].Bandwidth += b
		// Sender post = arrival − (o + α' + transfer); positive excess
		// over our entry is wait.
		if late := arrival[k] - (o + st.cm.alpha[k] + b) - entry; late > 0 {
			st.cnt[r][k].Wait += late
		}
		st.comm[r][k] += end - entry
	}
}

// applyCall advances rank r past a zero-communication MPI call
// (irecv posting, wait that found everything complete).
func (st *state) applyCall(r int32) {
	st.events[r]++
	o := st.cm.overhead
	for k := 0; k < st.K; k++ {
		st.clocks[r][k] += o
		st.cnt[r][k].Latency += o
		st.comm[r][k] += o
	}
}

// applyWait completes a wait whose request arrivals are the element-wise
// maxima in arrivals (nil means all requests were locally complete).
func (st *state) applyWait(r int32, arrivals []simtime.Time) {
	st.events[r]++
	o := st.cm.overhead
	for k := 0; k < st.K; k++ {
		entry := st.clocks[r][k]
		end := entry + o
		if arrivals != nil && arrivals[k]+o > end {
			end = arrivals[k] + o
			st.cnt[r][k].Wait += arrivals[k] - entry
		}
		st.clocks[r][k] = end
		st.cnt[r][k].Latency += o
		st.comm[r][k] += end - entry
	}
}

// applyCollective completes a collective on rank r.
//
//   - Non-rooted ops (barrier, allreduce, allgather, alltoall(v),
//     reducescatter) synchronize: completion = maxEntry + cost.
//   - Bcast/scatter: data flows from the root;
//     completion = max(ownEntry + o, rootEntry + cost).
//   - Reduce/gather: the root absorbs everyone (completion = maxEntry +
//     cost); non-roots only pay their own leaf send.
func (st *state) applyCollective(r int32, e *trace.Event, n int, isRoot bool, maxEntry, rootEntry []simtime.Time) {
	st.events[r]++
	o := st.cm.overhead
	var sendTotal int64
	if e.Op == trace.OpAlltoallv {
		for _, b := range e.SendBytes {
			sendTotal += b
		}
	}
	cc := collectiveCost(e.Op, n, e.Bytes, sendTotal)
	for k := 0; k < st.K; k++ {
		entry := st.clocks[r][k]
		// Each algorithm round costs one message latency plus the
		// software cost of a nonblocking exchange (the posts; the wait
		// overlaps the partner's round) — the 2o term calibrates the
		// model to the MPI implementation the simulators replay.
		lat := simtime.Time(cc.posts)*2*o + simtime.Time(cc.rounds)*(2*o+st.cm.alpha[k])
		bw := st.cm.xfer(k, cc.bytes)
		cost := o + lat + bw
		var end simtime.Time
		var waitBase simtime.Time
		switch {
		case e.Op == trace.OpBcast || e.Op == trace.OpScatter:
			end = simtime.Max(entry+o, rootEntry[k]+cost)
			waitBase = rootEntry[k]
		case (e.Op == trace.OpReduce || e.Op == trace.OpGather) && !isRoot:
			// Leaf cost: one send up the tree.
			end = entry + o + st.cm.alpha[k] + st.cm.xfer(k, e.Bytes)
			waitBase = entry
		default:
			end = maxEntry[k] + cost
			waitBase = maxEntry[k]
		}
		if end < entry+o {
			end = entry + o
		}
		st.clocks[r][k] = end
		st.cnt[r][k].Latency += o + lat
		st.cnt[r][k].Bandwidth += bw
		if late := waitBase - entry; late > 0 {
			st.cnt[r][k].Wait += late
		}
		st.comm[r][k] += end - entry
	}
}

// result aggregates the per-rank state into a Result (Class left for
// the caller).
func (st *state) result() *Result {
	n := len(st.clocks)
	res := &Result{
		Totals:    make([]simtime.Time, st.K),
		Comms:     make([]simtime.Time, st.K),
		PerConfig: make([]Counters, st.K),
	}
	for k := 0; k < st.K; k++ {
		var total, comm simtime.Time
		var c Counters
		for r := 0; r < n; r++ {
			total = simtime.Max(total, st.clocks[r][k])
			comm += st.comm[r][k]
			c.Wait += st.cnt[r][k].Wait
			c.Bandwidth += st.cnt[r][k].Bandwidth
			c.Latency += st.cnt[r][k].Latency
			c.Compute += st.cnt[r][k].Compute
		}
		d := simtime.Time(max(1, n))
		res.Totals[k] = total
		res.Comms[k] = comm / d
		res.PerConfig[k] = Counters{
			Wait:      c.Wait / d,
			Bandwidth: c.Bandwidth / d,
			Latency:   c.Latency / d,
			Compute:   c.Compute / d,
		}
	}
	for _, e := range st.events {
		res.Events += e
	}
	return res
}
