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

// template returns the id, among rank's templates, of the template
// collective event e (the seq'th on its communicator) runs, expanding
// the rounds of its algorithm into a new template if it is the first
// on the rank with its header. The rounds are a pure function of what
// collKey holds: the header, and for an alltoallv the counts the rank
// sends and receives, which vIndex has for every instance.
func (lw *lowerer) template(rank int, e *trace.Event, seq int, vIndex map[vKey][][]int64) (int32, error) {
	members := lw.comms.Members(e.Comm)
	n := len(members)
	pos := lw.comms.Position(e.Comm, int32(rank))
	if pos < 0 {
		return 0, fmt.Errorf("mpisim: rank %d not in comm %d", rank, e.Comm)
	}
	key := collKey{bytes: e.Bytes, comm: int32(e.Comm), root: e.Root, v: -1, op: e.Op}
	var tbl [][]int64
	if e.Op == trace.OpAlltoallv {
		tbl = vIndex[vKey{e.Comm, seq}]
		key.v = lw.vID(tbl, pos)
	}
	if id, ok := lw.tmplIDs[key]; ok {
		return id, nil
	}
	id := int32(len(lw.tmplIDs))
	lw.tmplIDs[key] = id
	t := collTemplate{Collective: HeaderOf(e), opOff: int64(len(lw.tops)), waitOff: int64(len(lw.waits))}
	lw.nextSynth = 0
	if n > 1 { // a single-member collective has no rounds
		c := collCtx{lw: lw, rank: rank, tag: collTagBase | int32(e.Comm)<<12, members: members, n: n, pos: pos}
		lw.inTmpl = true
		err := c.rounds(e, tbl)
		lw.inTmpl = false
		if err != nil {
			return 0, err
		}
	}
	if lw.counting {
		lw.nTmpls++
		return id, nil
	}
	t.opLen = int32(int64(len(lw.tops)) - t.opOff)
	t.waitLen = int32(int64(len(lw.waits)) - t.waitOff)
	t.reqs = lw.nextSynth
	lw.tmpls = append(lw.tmpls, t)
	return id, nil
}

// vID numbers, per rank, the alltoallv send and receive counts of the
// member at pos in tbl: its row, and its entry in every other row.
func (lw *lowerer) vID(tbl [][]int64, pos int) int32 {
	b := lw.vBuf[:0]
	if pos < len(tbl) && tbl[pos] != nil {
		b = append(b, int64(len(tbl[pos])))
		b = append(b, tbl[pos]...)
	} else {
		b = append(b, -1)
	}
	for _, row := range tbl {
		var v int64
		if row != nil {
			v = row[pos]
		}
		b = append(b, v)
	}
	lw.vBuf = b
	if id, ok := lw.vIDs[string(asBytes(b))]; ok {
		return id
	}
	if lw.vIDs == nil {
		lw.vIDs = make(map[string]int32)
	}
	id := int32(len(lw.vIDs))
	lw.vIDs[string(asBytes(b))] = id
	return id
}

// rounds emits the rounds of collective e's algorithm.
func (c *collCtx) rounds(e *trace.Event, tbl [][]int64) error {
	comms, n := c.lw.comms, c.n
	switch e.Op {
	case trace.OpBarrier:
		c.dissemination(0)
	case trace.OpBcast:
		c.binomialBcast(comms.Position(e.Comm, e.Root), e.Bytes)
	case trace.OpReduce:
		c.binomialReduce(comms.Position(e.Comm, e.Root), e.Bytes)
	case trace.OpAllreduce:
		c.recursiveDoublingAllreduce(e.Bytes)
	case trace.OpGather:
		c.binomialGather(comms.Position(e.Comm, e.Root), e.Bytes)
	case trace.OpScatter:
		c.binomialScatter(comms.Position(e.Comm, e.Root), e.Bytes)
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

// collCtx carries one rank's view of one collective template.
type collCtx struct {
	lw      *lowerer
	rank    int
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

// wait emits a round's wait on reqs.
func (c *collCtx) wait(reqs []int32) {
	c.lw.wait(reqs)
}

// p2p emits a round's point-to-point op with the member at pos, tagged
// with the communicator's collective tag. Lowered rounds match in
// communicator 0; their tags disambiguate.
func (c *collCtx) p2p(kind RopKind, pos int, bytes int64, req int32) {
	c.lw.emitP2P(c.rank, kind, bytes, req, c.world(pos), c.tag, 0)
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
