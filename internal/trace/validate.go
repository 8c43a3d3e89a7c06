package trace

import (
	"errors"
	"fmt"
)

// Validation checks the structural invariants a replayable trace must
// satisfy. Replay engines depend on these and may deadlock or panic on
// traces that violate them, so generators and decoders validate first.
// The checks run over the Source interface.

// ErrInvalid is wrapped by all validation failures.
var ErrInvalid = errors.New("trace: invalid")

// Validate checks the trace's structural invariants:
//
//   - per-rank timestamps are monotone (Entry ≤ Exit, non-decreasing);
//   - p2p peers are in range and are not the sender itself;
//   - nonblocking requests are unique per rank and every wait references
//     a previously issued, not-yet-completed request;
//   - every send has a matching receive with identical (peer, tag, comm,
//     bytes) and vice versa;
//   - collective events appear in the same order with identical
//     parameters on every member of their communicator;
//   - communicator references are in range, and every rank that issues
//     an event on a communicator is a member of it.
func (c *Columns) Validate() error {
	if len(c.ranks) != c.Meta.NumRanks {
		return fmt.Errorf("%w: %d rank streams, meta says %d", ErrInvalid, len(c.ranks), c.Meta.NumRanks)
	}
	return validateSource(c)
}

func validateSource(src Source) error {
	if err := validateLocal(src); err != nil {
		return err
	}
	if err := validateMatching(src); err != nil {
		return err
	}
	return validateCollectives(src)
}

func validateLocal(src Source) error {
	n := int32(src.TraceMeta().NumRanks)
	comms := src.TraceComms()
	var e Event
	for rank := 0; rank < int(n); rank++ {
		pending := make(map[int32]bool)
		prevExit := int64(-1)
		m := src.RankLen(rank)
		for i := 0; i < m; i++ {
			src.EventAt(rank, i, &e)
			if !e.Op.Valid() {
				return fmt.Errorf("%w: rank %d event %d: bad op %d", ErrInvalid, rank, i, e.Op)
			}
			if e.Exit < e.Entry {
				return fmt.Errorf("%w: rank %d event %d: exit %v before entry %v", ErrInvalid, rank, i, e.Exit, e.Entry)
			}
			if int64(e.Entry) < prevExit {
				return fmt.Errorf("%w: rank %d event %d: entry %v before previous exit", ErrInvalid, rank, i, e.Entry)
			}
			prevExit = int64(e.Exit)

			if e.Op.IsP2P() {
				if e.Peer < 0 || e.Peer >= n {
					return fmt.Errorf("%w: rank %d event %d: peer %d out of range", ErrInvalid, rank, i, e.Peer)
				}
				if int(e.Peer) == rank {
					return fmt.Errorf("%w: rank %d event %d: self-messaging", ErrInvalid, rank, i)
				}
				if e.Bytes < 0 {
					return fmt.Errorf("%w: rank %d event %d: negative bytes", ErrInvalid, rank, i)
				}
			}
			if e.Op.IsCollective() || e.Op.IsP2P() {
				if int(e.Comm) < 0 || int(e.Comm) >= comms.Len() {
					return fmt.Errorf("%w: rank %d event %d: comm %d out of range", ErrInvalid, rank, i, e.Comm)
				}
				if !comms.Contains(e.Comm, int32(rank)) {
					return fmt.Errorf("%w: rank %d event %d: rank not in comm %d", ErrInvalid, rank, i, e.Comm)
				}
			}
			switch {
			case e.Op.IsNonblocking():
				if e.Req == NoReq {
					return fmt.Errorf("%w: rank %d event %d: nonblocking op without request", ErrInvalid, rank, i)
				}
				if pending[e.Req] {
					return fmt.Errorf("%w: rank %d event %d: request %d reused while pending", ErrInvalid, rank, i, e.Req)
				}
				pending[e.Req] = true
			case e.Op == OpWait:
				if !pending[e.Req] {
					return fmt.Errorf("%w: rank %d event %d: wait on unknown request %d", ErrInvalid, rank, i, e.Req)
				}
				delete(pending, e.Req)
			case e.Op == OpWaitall:
				for _, r := range e.Reqs {
					if !pending[r] {
						return fmt.Errorf("%w: rank %d event %d: waitall on unknown request %d", ErrInvalid, rank, i, r)
					}
					delete(pending, r)
				}
			case e.Op == OpAlltoallv:
				if len(e.SendBytes) != comms.Size(e.Comm) {
					return fmt.Errorf("%w: rank %d event %d: alltoallv counts len %d != comm size %d",
						ErrInvalid, rank, i, len(e.SendBytes), comms.Size(e.Comm))
				}
			}
			if e.Op.IsRooted() && !comms.Contains(e.Comm, e.Root) {
				return fmt.Errorf("%w: rank %d event %d: root %d not in comm %d", ErrInvalid, rank, i, e.Root, e.Comm)
			}
		}
		if len(pending) != 0 {
			return fmt.Errorf("%w: rank %d: %d requests never completed", ErrInvalid, rank, len(pending))
		}
	}
	return nil
}

// matchKey identifies a point-to-point matching bucket. Trace replays
// match deterministically on (sender, receiver, tag, comm) in program
// order, the way the generated (non-wildcard) programs communicate.
type matchKey struct {
	src, dst, tag int32
	comm          CommID
}

func validateMatching(src Source) error {
	type msg struct{ bytes int64 }
	sends := make(map[matchKey][]msg)
	recvs := make(map[matchKey][]msg)
	var e Event
	n := src.TraceMeta().NumRanks
	for rank := 0; rank < n; rank++ {
		m := src.RankLen(rank)
		for i := 0; i < m; i++ {
			src.EventAt(rank, i, &e)
			switch e.Op {
			case OpSend, OpIsend:
				k := matchKey{int32(rank), e.Peer, e.Tag, e.Comm}
				sends[k] = append(sends[k], msg{e.Bytes})
			case OpRecv, OpIrecv:
				k := matchKey{e.Peer, int32(rank), e.Tag, e.Comm}
				recvs[k] = append(recvs[k], msg{e.Bytes})
			}
		}
	}
	for k, ss := range sends {
		rs := recvs[k]
		if len(ss) != len(rs) {
			return fmt.Errorf("%w: channel %d->%d tag %d comm %d: %d sends vs %d recvs",
				ErrInvalid, k.src, k.dst, k.tag, k.comm, len(ss), len(rs))
		}
		for i := range ss {
			if ss[i].bytes != rs[i].bytes {
				return fmt.Errorf("%w: channel %d->%d tag %d comm %d msg %d: %d bytes sent vs %d expected",
					ErrInvalid, k.src, k.dst, k.tag, k.comm, i, ss[i].bytes, rs[i].bytes)
			}
		}
		delete(recvs, k)
	}
	for k, rs := range recvs {
		if len(rs) > 0 {
			return fmt.Errorf("%w: channel %d->%d tag %d comm %d: %d recvs with no send",
				ErrInvalid, k.src, k.dst, k.tag, k.comm, len(rs))
		}
	}
	return nil
}

type collSig struct {
	op    Op
	root  int32
	bytes int64
}

func validateCollectives(src Source) error {
	// Per communicator, every member must observe the same ordered
	// sequence of collective signatures.
	comms := src.TraceComms()
	perComm := make([][][]collSig, comms.Len()) // [comm][memberPos][]sig
	for c := range perComm {
		perComm[c] = make([][]collSig, comms.Size(CommID(c)))
	}
	var e Event
	n := src.TraceMeta().NumRanks
	for rank := 0; rank < n; rank++ {
		m := src.RankLen(rank)
		for i := 0; i < m; i++ {
			src.EventAt(rank, i, &e)
			if !e.Op.IsCollective() {
				continue
			}
			pos := comms.Position(e.Comm, int32(rank))
			sig := collSig{e.Op, e.Root, e.Bytes}
			if e.Op == OpAlltoallv {
				sig.bytes = 0 // per-member payloads differ by design
			}
			perComm[e.Comm][pos] = append(perComm[e.Comm][pos], sig)
		}
	}
	for c, byMember := range perComm {
		for pos := 1; pos < len(byMember); pos++ {
			if len(byMember[pos]) != len(byMember[0]) {
				return fmt.Errorf("%w: comm %d: member %d saw %d collectives, member 0 saw %d",
					ErrInvalid, c, pos, len(byMember[pos]), len(byMember[0]))
			}
			for i := range byMember[pos] {
				if byMember[pos][i] != byMember[0][i] {
					return fmt.Errorf("%w: comm %d collective %d: member %d signature %+v != member 0 %+v",
						ErrInvalid, c, i, pos, byMember[pos][i], byMember[0][i])
				}
			}
		}
	}
	return nil
}
