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
	"hpctradeoff/internal/simtime"
)

// ropKind enumerates the primitive replay operations the driver
// executes after collectives are lowered away.
type ropKind uint8

const (
	ropCompute ropKind = iota
	ropSend
	ropIsend
	ropRecv
	ropIrecv
	ropWait // completes a set of requests (Wait and Waitall unified)
)

var ropNames = [...]string{"compute", "send", "isend", "recv", "irecv", "wait"}

func (k ropKind) String() string { return ropNames[k] }

// rop is one primitive replay operation on one rank.
type rop struct {
	kind  ropKind
	peer  int32 // world rank of the p2p peer
	tag   int32
	comm  int32 // communicator for matching (0 for lowered collective rounds, whose tags disambiguate)
	bytes int64
	dur   simtime.Time // compute duration (unscaled trace time)
	req   int32        // request id for isend/irecv
	ch    int32        // matching channel of a p2p op: the dense id of its (src, dst, tag, comm)
	reqs  []int32      // request set for wait
	ev    int32        // index of the originating event in the rank's trace stream
}

// program is the fully lowered per-rank replay program. All per-rank
// op slices view one shared arena, as do the wait request sets. A
// replay only reads it, so one program serves every network model the
// trace is replayed on.
type program struct {
	ops [][]rop
	// evCount[r] is the number of original events on rank r (for
	// timestamp write-back).
	evCount []int
	// reqCount[r] is the number of replay request ids rank r uses.
	// Lowering renumbers requests densely from 0, so the driver tracks
	// request state in flat arrays instead of maps.
	reqCount []int32
	// numChans is the number of distinct (src, dst, tag, comm) matching
	// channels; rop.ch indexes [0, numChans).
	numChans int
}
