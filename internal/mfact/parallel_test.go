package mfact

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/trace"
	"hpctradeoff/internal/workload"
)

// The reference replayer mirrors the original MFACT implementation: one
// worker per traced rank (an MPI process there, a goroutine here), with
// logical-clock vectors transmitted instead of message payloads. It
// shares the cost model and the per-op clock updates of state.go with
// the sequential replayer, but none of its matching: ranks block on
// real mailboxes and rendezvous points instead of a dataflow worklist,
// and every vector is freshly allocated instead of pooled. Matching
// follows the same per-channel FIFO discipline — receive claims are
// made in posting order — so the two replayers must agree bit for bit,
// and TestParallelMatchesSequentialProperty holds them to it.

// TestParallelMatchesSequentialProperty holds the sequential replayer
// to the reference on random mixed traces (p2p, nonblocking ops,
// collectives) and on every application of the suite in its columnar
// form.
func TestParallelMatchesSequentialProperty(t *testing.T) {
	mach := testMach(t, 12)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomMixedTrace(t, rng, 12)
		seq, err := Model(tr, mach, nil)
		if err != nil {
			t.Fatalf("sequential: %v", err)
		}
		ref, err := modelReference(tr, mach, nil)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		return sameResult(seq, ref)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}

	for i, app := range workload.Apps() {
		t.Run(app, func(t *testing.T) {
			p := workload.Params{App: app, Class: "S", Ranks: 8, Machine: "edison", Seed: int64(300 + i)}
			cols, err := workload.GenerateColumns(p)
			if err != nil {
				t.Fatalf("GenerateColumns: %v", err)
			}
			mach, err := machine.New(p.Machine, p.Ranks, 0)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := Model(cols, mach, nil)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			ref, err := modelReference(cols, mach, nil)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			if !sameResult(seq, ref) {
				t.Errorf("sequential %+v\nreference  %+v", seq, ref)
			}

			// The campaign path: the stamped trace modeled from the
			// program its stamping left behind, as a cache hit serves it.
			stamped, prog, err := workload.MaterializeReplay(p, workload.Limits{})
			if err != nil {
				t.Fatalf("MaterializeReplay: %v", err)
			}
			seq, err = NewSession().ModelProgram(stamped, prog, mach, nil)
			if err != nil {
				t.Fatalf("sequential on the stamper's program: %v", err)
			}
			if ref, err = modelReference(stamped, mach, nil); err != nil {
				t.Fatalf("reference: %v", err)
			}
			if len(seq.Configs) != 13 || !sameResult(seq, ref) {
				t.Errorf("stamped, %d configs: sequential %+v\nreference  %+v", len(seq.Configs), seq, ref)
			}
		})
	}
}

// sameResult compares every replayed field of two results.
func sameResult(a, b *Result) bool {
	return reflect.DeepEqual(a.Totals, b.Totals) &&
		reflect.DeepEqual(a.Comms, b.Comms) &&
		reflect.DeepEqual(a.PerConfig, b.PerConfig) &&
		a.Class == b.Class && a.Events == b.Events
}

// modelReference is Model on the reference replayer: the same sweep
// default, aggregation and classification around a different replay.
func modelReference(src trace.Source, mach *machine.Config, configs []NetConfig) (*Result, error) {
	if configs == nil {
		configs = StandardSweep()
	}
	st, err := replayParallel(src, mach, configs)
	if err != nil {
		return nil, err
	}
	res := st.result()
	res.Configs = configs
	res.Class = Classify(res)
	return res, nil
}

// chanKey is the MPI matching key of a point-to-point message.
type chanKey struct {
	src, dst, tag int32
	comm          trace.CommID
}

// seqSend is a sent message's logical timestamp in a mailbox.
type seqSend struct {
	post  []simtime.Time
	bytes int64
}

// collKey names one collective instance: the communicator and the
// instance's sequence number in it.
type collKey struct {
	comm trace.CommID
	seq  int
}

// snapshot copies rank r's clock vector (for transmitting as a
// logical timestamp).
func (st *state) snapshot(r int32) []simtime.Time {
	out := make([]simtime.Time, st.K)
	copy(out, st.clocks[r])
	return out
}

// recvArrival is recvArrivalInto on a freshly allocated vector.
func recvArrival(st *state, sendPost []simtime.Time, bytes int64) []simtime.Time {
	return recvArrivalInto(make([]simtime.Time, st.K), st, sendPost, bytes)
}

// accumulateArrival element-wise maxes an arrival vector into acc,
// returning acc (allocating it on first use).
func accumulateArrival(acc, arrival []simtime.Time) []simtime.Time {
	if arrival == nil {
		return acc
	}
	if acc == nil {
		acc = make([]simtime.Time, len(arrival))
		copy(acc, arrival)
		return acc
	}
	for k := range acc {
		acc[k] = simtime.Max(acc[k], arrival[k])
	}
	return acc
}

// mailbox is one rank's incoming logical-timestamp store.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[chanKey][]seqSend
}

func newMailbox() *mailbox {
	m := &mailbox{queues: make(map[chanKey][]seqSend)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) post(k chanKey, s seqSend) {
	m.mu.Lock()
	m.queues[k] = append(m.queues[k], s)
	m.mu.Unlock()
	m.cond.Broadcast()
}

// receive blocks until a message is available on channel k.
func (m *mailbox) receive(k chanKey) seqSend {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.queues[k]) == 0 {
		m.cond.Wait()
	}
	q := m.queues[k]
	s := q[0]
	m.queues[k] = q[1:]
	return s
}

// parColl is one collective instance's rendezvous point.
type parColl struct {
	mu        sync.Mutex
	cond      *sync.Cond
	arrived   int
	n         int
	maxEntry  []simtime.Time
	rootEntry []simtime.Time
	done      bool
}

// collTable hands out collective instances keyed by (comm, sequence).
type collTable struct {
	mu    sync.Mutex
	insts map[collKey]*parColl
}

func (ct *collTable) get(k collKey, n int) *parColl {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	inst := ct.insts[k]
	if inst == nil {
		inst = &parColl{n: n}
		inst.cond = sync.NewCond(&inst.mu)
		ct.insts[k] = inst
	}
	return inst
}

// parClaim is a receive posted but not yet matched.
type parClaim struct {
	key   chanKey
	bytes int64
	// arrival is filled when the claim is matched.
	arrival []simtime.Time
}

func replayParallel(src trace.Source, mach *machine.Config, configs []NetConfig) (*state, error) {
	// The reference replayer blocks goroutines on real condition
	// variables, so structurally invalid traces would hang rather than
	// fail; validate first. Both trace representations expose Validate.
	if v, ok := src.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return nil, err
		}
	}
	st := newState(src.TraceMeta().NumRanks, newCostModel(mach, configs))
	n := src.TraceMeta().NumRanks
	boxes := make([]*mailbox, n)
	for r := range boxes {
		boxes[r] = newMailbox()
	}
	colls := &collTable{insts: make(map[collKey]*parColl)}

	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rid int32) {
			defer wg.Done()
			errs[rid] = replayRank(st, src, rid, boxes, colls)
		}(int32(r))
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("mfact: rank %d: %w", r, err)
		}
	}
	return st, nil
}

func replayRank(st *state, src trace.Source, rid int32, boxes []*mailbox, colls *collTable) error {
	// claims[k] holds this rank's unmatched receives on channel k, in
	// posting order; they must be resolved FIFO.
	claims := make(map[chanKey][]*parClaim)
	reqs := make(map[int32]*parClaim)
	comms := src.TraceComms()
	collSeq := make([]int, comms.Len())
	myBox := boxes[rid]

	// resolveUntil matches queued claims on k (in order) until the
	// given claim is filled, blocking for messages as needed.
	resolveUntil := func(k chanKey, target *parClaim) {
		for target.arrival == nil {
			q := claims[k]
			c := q[0]
			claims[k] = q[1:]
			s := myBox.receive(k)
			c.arrival = recvArrival(st, s.post, c.bytes)
		}
	}

	var ev trace.Event
	m := src.RankLen(int(rid))
	for i := 0; i < m; i++ {
		src.EventAt(int(rid), i, &ev)
		e := &ev
		switch e.Op {
		case trace.OpCompute:
			st.applyCompute(rid, e.Duration())

		case trace.OpSend, trace.OpIsend:
			post := st.snapshot(rid)
			k := chanKey{src: rid, dst: e.Peer, tag: e.Tag, comm: e.Comm}
			boxes[e.Peer].post(k, seqSend{post: post, bytes: e.Bytes})
			st.applySend(rid, e.Bytes, e.Op == trace.OpSend)
			if e.Op == trace.OpIsend {
				reqs[e.Req] = &parClaim{arrival: st.snapshot(rid)}
			}

		case trace.OpRecv:
			k := chanKey{src: e.Peer, dst: rid, tag: e.Tag, comm: e.Comm}
			c := &parClaim{key: k, bytes: e.Bytes}
			claims[k] = append(claims[k], c)
			resolveUntil(k, c)
			st.applyRecvArrival(rid, c.arrival, e.Bytes)

		case trace.OpIrecv:
			k := chanKey{src: e.Peer, dst: rid, tag: e.Tag, comm: e.Comm}
			c := &parClaim{key: k, bytes: e.Bytes}
			claims[k] = append(claims[k], c)
			reqs[e.Req] = c
			st.applyCall(rid)

		case trace.OpWait, trace.OpWaitall:
			ids := e.Reqs
			if e.Op == trace.OpWait {
				ids = []int32{e.Req}
			}
			var acc []simtime.Time
			for _, id := range ids {
				c := reqs[id]
				if c == nil {
					return fmt.Errorf("wait on unknown request %d", id)
				}
				if c.arrival == nil {
					resolveUntil(c.key, c)
				}
				acc = accumulateArrival(acc, c.arrival)
				delete(reqs, id)
			}
			st.applyWait(rid, acc)

		default:
			if !e.Op.IsCollective() {
				return fmt.Errorf("event %d: unsupported op %v", i, e.Op)
			}
			nMembers := comms.Size(e.Comm)
			if nMembers <= 1 {
				st.applyCall(rid)
				continue
			}
			seq := collSeq[e.Comm]
			collSeq[e.Comm]++
			inst := colls.get(collKey{e.Comm, seq}, nMembers)
			entry := st.snapshot(rid)
			inst.mu.Lock()
			inst.maxEntry = accumulateArrival(inst.maxEntry, entry)
			if e.Op.IsRooted() && rid == e.Root {
				inst.rootEntry = entry
			}
			inst.arrived++
			if inst.arrived == inst.n {
				inst.done = true
				inst.cond.Broadcast()
			}
			for !inst.done {
				inst.cond.Wait()
			}
			maxEntry, rootEntry := inst.maxEntry, inst.rootEntry
			inst.mu.Unlock()
			h := mpisim.HeaderOf(e)
			st.applyCollective(rid, &h, nMembers, e.Op.IsRooted() && rid == e.Root, maxEntry, rootEntry)
		}
	}
	return nil
}
