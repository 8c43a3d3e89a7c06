package workload

import (
	"fmt"
	"testing"

	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/trace"
)

// This file is a property-based check on the trace generators: for
// every app in the 235-trace manifest, across several seeds, the
// generated trace must be causally well-formed. The checks are
// implemented here from scratch — independently of Columns.Validate —
// so a bug shared by the generator and the validator cannot hide.

// propKey identifies a point-to-point channel; messages on one channel
// match in FIFO order.
type propKey struct {
	src, dst, tag int32
	comm          trace.CommID
}

type propMsg struct {
	bytes int64
	// avail is when the message could first exist (the send's entry);
	// done is when the receive completed (recv exit, or the retiring
	// wait's exit for nonblocking receives).
	avail simtime.Time
	done  simtime.Time
}

// checkCausalOrder verifies, from first principles, that a trace could
// have been produced by a real MPI run:
//
//  1. per-rank timestamps are monotone: every event's Exit ≥ Entry and
//     Entry ≥ the previous event's Exit;
//  2. every receive has a matching send (FIFO per channel, equal
//     bytes), and — when temporal is set — no receive completes
//     before its matching send began: a message cannot arrive before
//     it exists;
//  3. p2p peers are real ranks and never the sender itself.
//
// The temporal check only applies to materialized traces. A freshly
// generated program trace carries intended compute durations with
// zero-duration communication placeholders, so its per-rank clocks
// drift independently; only the ground-truth execution (MaterializeColumns)
// stamps times in which cross-rank causality is meaningful.
func checkCausalOrder(t *testing.T, tr *trace.Columns, temporal bool) {
	t.Helper()
	n := int32(tr.Meta.NumRanks)
	sends := map[propKey][]propMsg{}
	recvs := map[propKey][]propMsg{}

	for rank := 0; rank < tr.NumRanks(); rank++ {
		evs := rankEvents(tr, rank)
		var prevExit simtime.Time = -1
		// reqDone[i] is the index in the rank's recv list whose
		// completion time is fixed by the wait retiring request r.
		pendingRecv := map[int32]int{}
		var rankRecvs []*propMsg
		for i := range evs {
			e := &evs[i]
			if e.Exit < e.Entry {
				t.Fatalf("%s rank %d event %d: exit %v before entry %v", tr.Meta.ID(), rank, i, e.Exit, e.Entry)
			}
			if e.Entry < prevExit {
				t.Fatalf("%s rank %d event %d: entry %v before previous exit %v (non-monotone stream)",
					tr.Meta.ID(), rank, i, e.Entry, prevExit)
			}
			prevExit = e.Exit

			switch e.Op {
			case trace.OpSend, trace.OpIsend:
				if e.Peer < 0 || e.Peer >= n || int(e.Peer) == rank {
					t.Fatalf("%s rank %d event %d: bad send peer %d", tr.Meta.ID(), rank, i, e.Peer)
				}
				k := propKey{int32(rank), e.Peer, e.Tag, e.Comm}
				sends[k] = append(sends[k], propMsg{bytes: e.Bytes, avail: e.Entry})
			case trace.OpRecv, trace.OpIrecv:
				if e.Peer < 0 || e.Peer >= n || int(e.Peer) == rank {
					t.Fatalf("%s rank %d event %d: bad recv peer %d", tr.Meta.ID(), rank, i, e.Peer)
				}
				k := propKey{e.Peer, int32(rank), e.Tag, e.Comm}
				recvs[k] = append(recvs[k], propMsg{bytes: e.Bytes, done: e.Exit})
				if e.Op == trace.OpIrecv {
					rankRecvs = append(rankRecvs, &recvs[k][len(recvs[k])-1])
					pendingRecv[e.Req] = len(rankRecvs) - 1
				}
			case trace.OpWait:
				if idx, ok := pendingRecv[e.Req]; ok {
					rankRecvs[idx].done = e.Exit
					delete(pendingRecv, e.Req)
				}
			case trace.OpWaitall:
				for _, r := range e.Reqs {
					if idx, ok := pendingRecv[r]; ok {
						rankRecvs[idx].done = e.Exit
						delete(pendingRecv, r)
					}
				}
			}
		}
		if len(pendingRecv) != 0 {
			t.Fatalf("%s rank %d: %d nonblocking receives never completed by a wait", tr.Meta.ID(), rank, len(pendingRecv))
		}
	}

	for k, ss := range recvs {
		if len(sends[k]) != len(ss) {
			t.Fatalf("%s channel %d->%d tag %d: %d recvs vs %d sends",
				tr.Meta.ID(), k.src, k.dst, k.tag, len(ss), len(sends[k]))
		}
	}
	for k, ss := range sends {
		rs := recvs[k]
		if len(ss) != len(rs) {
			t.Fatalf("%s channel %d->%d tag %d: %d sends vs %d recvs",
				tr.Meta.ID(), k.src, k.dst, k.tag, len(ss), len(rs))
		}
		for i := range ss {
			if ss[i].bytes != rs[i].bytes {
				t.Fatalf("%s channel %d->%d tag %d msg %d: sent %d bytes, received %d",
					tr.Meta.ID(), k.src, k.dst, k.tag, i, ss[i].bytes, rs[i].bytes)
			}
			if temporal && rs[i].done < ss[i].avail {
				t.Fatalf("%s channel %d->%d tag %d msg %d: receive completed at %v before matching send began at %v",
					tr.Meta.ID(), k.src, k.dst, k.tag, i, rs[i].done, ss[i].avail)
			}
		}
	}
}

// smallestPerAppClass returns the smallest-rank manifest entry per
// (app, class) pair.
func smallestPerAppClass() map[string]Params {
	picked := map[string]Params{}
	for _, p := range Suite() {
		key := p.App + "/" + p.Class
		if cur, ok := picked[key]; !ok || p.Ranks < cur.Ranks {
			picked[key] = p
		}
	}
	return picked
}

// TestGeneratorsProduceWellFormedPrograms generates, for every app the
// manifest names, its smallest-rank configuration under several seeds
// and asserts structural well-formedness (monotone per-rank streams,
// exactly matched sends and receives). Seeds perturb the generators'
// jitter and random pairings, so each one is a distinct sample of the
// generator's output space.
func TestGeneratorsProduceWellFormedPrograms(t *testing.T) {
	seeds := []int64{0, 7, 1_000_003}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, p := range smallestPerAppClass() {
		for _, ds := range seeds {
			p := p
			p.Seed += ds
			t.Run(fmt.Sprintf("%s.%s+%d", p.App, p.Class, ds), func(t *testing.T) {
				tr, err := GenerateColumns(p)
				if err != nil {
					t.Fatalf("generate: %v", err)
				}
				if tr.NumRanks() != p.Ranks {
					t.Fatalf("trace has %d rank streams, params say %d", tr.NumRanks(), p.Ranks)
				}
				if tr.NumEvents() == 0 {
					t.Fatal("generator produced an empty trace")
				}
				checkCausalOrder(t, tr, false)
			})
		}
	}
}

// TestMaterializedTracesAreCausal runs the full causality check —
// including "no receive completes before its matching send began" —
// on materialized traces, whose timestamps come from the ground-truth
// contention simulation and therefore claim to be physically
// realizable measurements. One configuration per app, at the app's
// smallest manifest scale.
func TestMaterializedTracesAreCausal(t *testing.T) {
	perApp := map[string]Params{}
	for _, p := range smallestPerAppClass() {
		if cur, ok := perApp[p.App]; !ok || p.Class < cur.Class {
			perApp[p.App] = p
		}
	}
	for _, p := range perApp {
		p := p
		t.Run(fmt.Sprintf("%s.%s.x%d", p.App, p.Class, p.Ranks), func(t *testing.T) {
			if testing.Short() && p.Ranks > 64 {
				t.Skip("short mode")
			}
			tr, err := MaterializeColumns(p)
			if err != nil {
				t.Fatalf("materialize: %v", err)
			}
			checkCausalOrder(t, tr, true)
		})
	}
}

// TestSuiteMatchesTableIDistribution asserts the manifest's rank
// distribution against the paper's Table Ia, bucket by bucket. (The
// generators' per-trace properties above are only meaningful if the
// manifest actually spans the study's scale mix.)
func TestSuiteMatchesTableIDistribution(t *testing.T) {
	want := map[string]int{
		"64": 72, "65-128": 18, "129-256": 80,
		"257-512": 12, "513-1024": 37, "1025-1728": 16,
	}
	got := map[string]int{}
	for _, p := range Suite() {
		switch r := p.Ranks; {
		case r == 64:
			got["64"]++
		case r > 64 && r <= 128:
			got["65-128"]++
		case r <= 256:
			got["129-256"]++
		case r <= 512:
			got["257-512"]++
		case r <= 1024:
			got["513-1024"]++
		case r <= 1728:
			got["1025-1728"]++
		default:
			t.Errorf("trace %s.%s at %d ranks is outside every Table Ia bucket", p.App, p.Class, p.Ranks)
		}
	}
	total := 0
	for bucket, n := range want {
		if got[bucket] != n {
			t.Errorf("bucket %s has %d traces, Table Ia says %d", bucket, got[bucket], n)
		}
		total += got[bucket]
	}
	if total != 235 {
		t.Errorf("manifest has %d traces, the study has 235", total)
	}
}
