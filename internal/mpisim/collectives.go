package mpisim

import (
	"fmt"
	"math/bits"

	"hpctradeoff/internal/trace"
)

// The collective algorithms below are the Thakur & Gropp suite MPICH
// uses on switched networks, which is what MFACT's collective cost
// models and SST/Macro's MPI layer assume:
//
//	barrier        dissemination
//	bcast          binomial tree
//	reduce         binomial tree (leaves toward root)
//	allreduce      recursive doubling with non-power-of-two fold
//	gather/scatter binomial tree with subtree-sized payloads
//	allgather      ring
//	alltoall       Bruck (small payloads) / pairwise rotation (large)
//	alltoallv      pairwise rotation with per-peer sizes
//	reducescatter  pairwise exchange
//
// Each algorithm is lowered to isend/irecv/wait rounds so the replay's
// protocol handling (eager vs rendezvous, contention) applies to
// collective traffic exactly as it does to application traffic.

// bruckThreshold is the per-member payload below which alltoall uses
// the Bruck algorithm (log rounds of aggregated blocks), and
// scatteredThreshold the payload below which the "scattered" storm of
// nonblocking sends/receives is used; only large payloads pay the
// memory-bounded pairwise rotation.
const (
	bruckThreshold     = 256
	scatteredThreshold = 32 << 10
)

func (lw *lowerer) lowerCollective(rank int, e *trace.Event, ev int32, seq int, vIndex map[vKey][][]int64) error {
	members := lw.comms.Members(e.Comm)
	n := len(members)
	pos := lw.comms.Position(e.Comm, int32(rank))
	if pos < 0 {
		return fmt.Errorf("mpisim: rank %d not in comm %d", rank, e.Comm)
	}
	tag := collTagBase | int32(e.Comm)<<12
	c := collCtx{lw: lw, rank: rank, ev: ev, tag: tag, members: members, n: n, pos: pos}
	if n == 1 {
		return nil // single-member collective is a no-op
	}
	switch e.Op {
	case trace.OpBarrier:
		c.dissemination(0)
	case trace.OpBcast:
		c.binomialBcast(int(lw.comms.Position(e.Comm, e.Root)), e.Bytes)
	case trace.OpReduce:
		c.binomialReduce(int(lw.comms.Position(e.Comm, e.Root)), e.Bytes)
	case trace.OpAllreduce:
		c.recursiveDoublingAllreduce(e.Bytes)
	case trace.OpGather:
		c.binomialGather(int(lw.comms.Position(e.Comm, e.Root)), e.Bytes)
	case trace.OpScatter:
		c.binomialScatter(int(lw.comms.Position(e.Comm, e.Root)), e.Bytes)
	case trace.OpAllgather:
		c.ringAllgather(e.Bytes)
	case trace.OpAlltoall:
		switch {
		case e.Bytes <= bruckThreshold:
			c.bruckAlltoall(e.Bytes)
		case e.Bytes <= scatteredThreshold:
			c.scatteredAlltoall(e.Bytes)
		default:
			c.pairwiseAlltoall(e.Bytes)
		}
	case trace.OpAlltoallv:
		tbl := vIndex[vKey{e.Comm, seq}]
		if alltoallvAvg(tbl, c.pos, n) <= scatteredThreshold {
			c.scatteredAlltoallv(tbl)
		} else {
			c.pairwiseAlltoallv(tbl)
		}
	case trace.OpReduceScatter:
		c.pairwiseReduceScatter(e.Bytes)
	default:
		return fmt.Errorf("mpisim: unknown collective %v", e.Op)
	}
	return nil
}

// collCtx carries one rank's view of one collective instance.
type collCtx struct {
	lw      *lowerer
	rank    int
	ev      int32
	tag     int32
	members []int32
	n, pos  int
}

func (c *collCtx) world(pos int) int32 { return c.members[pos] }

// sendRecv emits a deadlock-free exchange round: irecv (if recvFrom ≥
// 0), isend (if sendTo ≥ 0), then a wait on both. Positions are member
// positions; -1 skips that side.
func (c *collCtx) sendRecv(sendTo int, sendBytes int64, recvFrom int, recvBytes int64) {
	reqs := c.lw.scratch[:0]
	if recvFrom >= 0 {
		reqs = append(reqs, c.post(RopIrecv, recvFrom, recvBytes))
	}
	if sendTo >= 0 {
		reqs = append(reqs, c.post(RopIsend, sendTo, sendBytes))
	}
	c.lw.scratch = reqs
	if len(reqs) > 0 {
		c.wait(reqs)
	}
}

// wait emits a round's wait on reqs, marked RopColl and attributed to
// the collective's event.
func (c *collCtx) wait(reqs []int32) {
	c.lw.emit(Rop{Kind: RopWait, Ev: c.ev, Flags: RopColl}, reqs)
}

// p2p emits a round's point-to-point op with the member at pos, marked
// RopColl, attributed to the collective's event, and tagged with the
// instance's tag. Lowered rounds match in communicator 0; their tags
// disambiguate.
func (c *collCtx) p2p(kind RopKind, pos int, bytes int64, req int32) {
	c.lw.emitP2P(c.rank, Rop{Kind: kind, Val: bytes, Req: req, Ev: c.ev, Flags: RopColl}, c.world(pos), c.tag, 0)
}

// post emits a nonblocking isend or irecv with the member at pos and
// returns its synthesized request id.
func (c *collCtx) post(kind RopKind, pos int, bytes int64) int32 {
	req := c.lw.synth()
	c.p2p(kind, pos, bytes, req)
	return req
}

// send and recv emit one-sided blocking halves for tree algorithms.
func (c *collCtx) send(to int, bytes int64) { c.p2p(RopSend, to, bytes, 0) }

func (c *collCtx) recv(from int, bytes int64) { c.p2p(RopRecv, from, bytes, 0) }

// dissemination implements the dissemination barrier: ceil(log2 n)
// rounds; in round k, pos sends to (pos+2^k) mod n and receives from
// (pos-2^k) mod n.
func (c *collCtx) dissemination(bytes int64) {
	for k := 1; k < c.n; k <<= 1 {
		to := (c.pos + k) % c.n
		from := (c.pos - k + c.n) % c.n
		c.sendRecv(to, bytes, from, bytes)
	}
}

// binomialBcast implements the binomial-tree broadcast rooted at
// member position root.
func (c *collCtx) binomialBcast(root int, bytes int64) {
	rel := (c.pos - root + c.n) % c.n
	mask := 1
	for mask < c.n {
		if rel&mask != 0 {
			c.recv((rel-mask+root)%c.n, bytes)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < c.n {
			c.send((rel+mask+root)%c.n, bytes)
		}
		mask >>= 1
	}
}

// binomialReduce is the mirror image of binomialBcast: leaves send
// toward the root.
func (c *collCtx) binomialReduce(root int, bytes int64) {
	rel := (c.pos - root + c.n) % c.n
	mask := 1
	for mask < c.n {
		if rel&mask == 0 {
			if rel+mask < c.n {
				c.recv((rel+mask+root)%c.n, bytes)
			}
		} else {
			c.send((rel-mask+root)%c.n, bytes)
			break
		}
		mask <<= 1
	}
}

// recursiveDoublingAllreduce implements allreduce via recursive
// doubling with the standard fold for non-power-of-two sizes: the
// excess ranks fold into partners first, sit out the doubling, and
// receive the result at the end.
func (c *collCtx) recursiveDoublingAllreduce(bytes int64) {
	pof2 := 1 << (bits.Len(uint(c.n)) - 1)
	if pof2 > c.n {
		pof2 >>= 1
	}
	rem := c.n - pof2
	newpos := -1
	switch {
	case c.pos < 2*rem && c.pos%2 == 0:
		c.send(c.pos+1, bytes) // fold into odd partner, sit out
	case c.pos < 2*rem:
		c.recv(c.pos-1, bytes)
		newpos = c.pos / 2
	default:
		newpos = c.pos - rem
	}
	if newpos >= 0 {
		toOld := func(np int) int {
			if np < rem {
				return np*2 + 1
			}
			return np + rem
		}
		for mask := 1; mask < pof2; mask <<= 1 {
			partner := toOld(newpos ^ mask)
			c.sendRecv(partner, bytes, partner, bytes)
		}
	}
	// Unfold: odd partners return the result to the evens that sat out.
	switch {
	case c.pos < 2*rem && c.pos%2 == 0:
		c.recv(c.pos+1, bytes)
	case c.pos < 2*rem:
		c.send(c.pos-1, bytes)
	}
}

// binomialGather gathers bytes-per-member to the root; each tree edge
// carries the sender's accumulated subtree.
func (c *collCtx) binomialGather(root int, bytes int64) {
	rel := (c.pos - root + c.n) % c.n
	mask := 1
	for mask < c.n {
		if rel&mask == 0 {
			if rel+mask < c.n {
				sub := min(mask, c.n-(rel+mask))
				c.recv((rel+mask+root)%c.n, bytes*int64(sub))
			}
		} else {
			sub := min(mask, c.n-rel)
			c.send((rel-mask+root)%c.n, bytes*int64(sub))
			break
		}
		mask <<= 1
	}
}

// binomialScatter is the mirror image of binomialGather.
func (c *collCtx) binomialScatter(root int, bytes int64) {
	rel := (c.pos - root + c.n) % c.n
	// Receive our subtree from the parent (non-roots only).
	mask := 1
	for mask < c.n {
		if rel&mask != 0 {
			sub := min(mask, c.n-rel)
			c.recv((rel-mask+root)%c.n, bytes*int64(sub))
			break
		}
		mask <<= 1
	}
	// Forward sub-subtrees downward.
	mask >>= 1
	for mask > 0 {
		if rel+mask < c.n {
			sub := min(mask, c.n-(rel+mask))
			c.send((rel+mask+root)%c.n, bytes*int64(sub))
		}
		mask >>= 1
	}
}

// ringAllgather implements the (n-1)-round ring: in each round, pass
// one block to the right neighbor and receive one from the left.
func (c *collCtx) ringAllgather(bytes int64) {
	right := (c.pos + 1) % c.n
	left := (c.pos - 1 + c.n) % c.n
	for k := 0; k < c.n-1; k++ {
		c.sendRecv(right, bytes, left, bytes)
	}
}

// alltoallvAvg returns the caller's average per-peer payload, the
// algorithm-selection metric for alltoallv.
func alltoallvAvg(tbl [][]int64, pos, n int) int64 {
	if n <= 1 || pos >= len(tbl) || tbl[pos] == nil {
		return 0
	}
	var sum int64
	for _, b := range tbl[pos] {
		sum += b
	}
	return sum / int64(n-1)
}

// scatteredAlltoall implements the medium-payload "scattered"
// algorithm: post every receive, then every send (rotated so sends
// spread over destinations), then wait for everything. No round
// barriers, so transfers overlap freely.
func (c *collCtx) scatteredAlltoall(bytes int64) {
	reqs := c.lw.scratch[:0]
	for k := 1; k < c.n; k++ {
		from := (c.pos - k + c.n) % c.n
		reqs = append(reqs, c.post(RopIrecv, from, bytes))
	}
	for k := 1; k < c.n; k++ {
		to := (c.pos + k) % c.n
		reqs = append(reqs, c.post(RopIsend, to, bytes))
	}
	c.lw.scratch = reqs
	c.wait(reqs)
}

// scatteredAlltoallv is scatteredAlltoall with per-peer payloads.
func (c *collCtx) scatteredAlltoallv(tbl [][]int64) {
	reqs := c.lw.scratch[:0]
	for k := 1; k < c.n; k++ {
		from := (c.pos - k + c.n) % c.n
		var b int64
		if from < len(tbl) && tbl[from] != nil {
			b = tbl[from][c.pos]
		}
		reqs = append(reqs, c.post(RopIrecv, from, b))
	}
	for k := 1; k < c.n; k++ {
		to := (c.pos + k) % c.n
		var b int64
		if c.pos < len(tbl) && tbl[c.pos] != nil {
			b = tbl[c.pos][to]
		}
		reqs = append(reqs, c.post(RopIsend, to, b))
	}
	c.lw.scratch = reqs
	c.wait(reqs)
}

// pairwiseAlltoall implements the (n-1)-round rotation: in round k,
// send the block for (pos+k) mod n and receive from (pos-k) mod n.
func (c *collCtx) pairwiseAlltoall(bytes int64) {
	for k := 1; k < c.n; k++ {
		to := (c.pos + k) % c.n
		from := (c.pos - k + c.n) % c.n
		c.sendRecv(to, bytes, from, bytes)
	}
}

// bruckAlltoall implements the Bruck algorithm for small payloads:
// ceil(log2 n) rounds; round k ships every block whose rotated
// destination has bit k set, i.e. about n/2 blocks per round.
func (c *collCtx) bruckAlltoall(bytes int64) {
	for k := 1; k < c.n; k <<= 1 {
		blocks := 0
		for j := 1; j < c.n; j++ {
			if j&k != 0 {
				blocks++
			}
		}
		to := (c.pos + k) % c.n
		from := (c.pos - k + c.n) % c.n
		c.sendRecv(to, bytes*int64(blocks), from, bytes*int64(blocks))
	}
}

// pairwiseAlltoallv is the rotation algorithm with per-destination
// payloads. tbl[p] is member p's SendBytes table.
func (c *collCtx) pairwiseAlltoallv(tbl [][]int64) {
	for k := 1; k < c.n; k++ {
		to := (c.pos + k) % c.n
		from := (c.pos - k + c.n) % c.n
		var sendB, recvB int64
		if c.pos < len(tbl) && tbl[c.pos] != nil {
			sendB = tbl[c.pos][to]
		}
		if from < len(tbl) && tbl[from] != nil {
			recvB = tbl[from][c.pos]
		}
		c.sendRecv(to, sendB, from, recvB)
	}
}

// pairwiseReduceScatter exchanges one reduced chunk with every peer.
func (c *collCtx) pairwiseReduceScatter(bytes int64) {
	for k := 1; k < c.n; k++ {
		to := (c.pos + k) % c.n
		from := (c.pos - k + c.n) % c.n
		c.sendRecv(to, bytes, from, bytes)
	}
}
