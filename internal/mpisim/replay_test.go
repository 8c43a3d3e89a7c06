package mpisim

import (
	"strings"
	"testing"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/simnet"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/trace"
)

func testMach(t *testing.T, ranks int) *machine.Config {
	t.Helper()
	m, err := machine.Cielito(ranks, 4)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func replayAll(t *testing.T, tr *trace.Columns, opts Options) map[simnet.Model]*Result {
	t.Helper()
	out := map[simnet.Model]*Result{}
	mach := testMach(t, tr.Meta.NumRanks)
	for _, m := range simnet.Models() {
		res, err := Replay(tr, m, mach, simnet.Config{}, opts)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		out[m] = res
	}
	return out
}

func TestReplayComputeOnly(t *testing.T) {
	b := newTB(4)
	for r := 0; r < 4; r++ {
		b.compute(r, simtime.Time(r+1)*simtime.Millisecond)
	}
	tr := b.build(t)
	for m, res := range replayAll(t, tr, Options{}) {
		if res.Total != 4*simtime.Millisecond {
			t.Errorf("%s: total = %v, want 4ms", m, res.Total)
		}
		if res.Comm != 0 {
			t.Errorf("%s: comm = %v, want 0", m, res.Comm)
		}
	}
}

func TestReplayComputeScaling(t *testing.T) {
	b := newTB(2)
	b.compute(0, 10*simtime.Millisecond)
	b.compute(1, 10*simtime.Millisecond)
	tr := b.build(t)
	mach := testMach(t, 2)
	half, err := Replay(tr, simnet.PacketFlow, mach, simnet.Config{}, Options{CompScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if half.Total != 5*simtime.Millisecond {
		t.Errorf("CompScale 0.5: total = %v, want 5ms", half.Total)
	}
}

func TestReplayPingPong(t *testing.T) {
	b := newTB(8)
	const bytes = 4096
	b.send(0, 7, 1, bytes)
	b.recv(7, 0, 1, bytes)
	b.send(7, 0, 2, bytes)
	b.recv(0, 7, 2, bytes)
	tr := b.build(t)
	for m, res := range replayAll(t, tr, Options{}) {
		// Two one-way trips: total should be ~2(α + bytes/β) plus
		// overheads, well under a millisecond but positive.
		if res.Total <= 0 || res.Total > simtime.Millisecond {
			t.Errorf("%s: total = %v", m, res.Total)
		}
		if res.Comm <= 0 {
			t.Errorf("%s: comm = %v, want > 0", m, res.Comm)
		}
	}
}

func TestReplayNonblockingOverlap(t *testing.T) {
	// Communication overlapped with computation should cost less than
	// their sum: isend/irecv, compute, waitall.
	const bytes = 256 << 10
	mk := func(overlap bool) *trace.Columns {
		b := newTB(8)
		if overlap {
			r0 := b.irecv(0, 7, 1, bytes)
			s0 := b.isend(0, 7, 2, bytes)
			b.compute(0, 5*simtime.Millisecond)
			b.waitall(0, r0, s0)
			r7 := b.irecv(7, 0, 2, bytes)
			s7 := b.isend(7, 0, 1, bytes)
			b.compute(7, 5*simtime.Millisecond)
			b.waitall(7, r7, s7)
		} else {
			b.recv(0, 7, 1, bytes)
			b.send(0, 7, 2, bytes)
			b.compute(0, 5*simtime.Millisecond)
			b.send(7, 0, 1, bytes)
			b.recv(7, 0, 2, bytes)
			b.compute(7, 5*simtime.Millisecond)
		}
		return b.build(t)
	}
	mach := testMach(t, 8)
	ov, err := Replay(mk(true), simnet.PacketFlow, mach, simnet.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Replay(mk(false), simnet.PacketFlow, mach, simnet.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ov.Total >= seq.Total {
		t.Errorf("overlapped %v not faster than sequential %v", ov.Total, seq.Total)
	}
}

func TestReplayAllCollectives(t *testing.T) {
	ops := []trace.Op{
		trace.OpBarrier, trace.OpBcast, trace.OpReduce, trace.OpAllreduce,
		trace.OpGather, trace.OpScatter, trace.OpAllgather,
		trace.OpAlltoall, trace.OpReduceScatter,
	}
	for _, n := range []int{2, 3, 4, 5, 8, 13, 16} {
		for _, op := range ops {
			b := newTB(n)
			root := n / 2
			for r := 0; r < n; r++ {
				b.coll(r, op, trace.CommWorld, root, 2048)
			}
			tr := b.build(t)
			mach := testMach(t, n)
			res, err := Replay(tr, simnet.PacketFlow, mach, simnet.Config{}, Options{})
			if err != nil {
				t.Fatalf("n=%d %v: %v", n, op, err)
			}
			if res.Total <= 0 {
				t.Errorf("n=%d %v: total = %v", n, op, res.Total)
			}
		}
	}
}

func TestReplayBruckVsPairwiseAlltoall(t *testing.T) {
	// Small payload uses Bruck (log rounds); both must complete.
	for _, bytes := range []int64{64, 64 << 10} {
		b := newTB(16)
		for r := 0; r < 16; r++ {
			b.coll(r, trace.OpAlltoall, trace.CommWorld, 0, bytes)
		}
		tr := b.build(t)
		mach := testMach(t, 16)
		res, err := Replay(tr, simnet.PacketFlow, mach, simnet.Config{}, Options{})
		if err != nil {
			t.Fatalf("bytes=%d: %v", bytes, err)
		}
		if res.Total <= 0 {
			t.Errorf("bytes=%d: total = %v", bytes, res.Total)
		}
	}
}

func TestReplayAlltoallvAsymmetric(t *testing.T) {
	const n = 4
	b := newTB(n)
	for r := 0; r < n; r++ {
		sb := make([]int64, n)
		for d := 0; d < n; d++ {
			if d != r {
				sb[d] = int64((r + 1) * (d + 1) * 100)
			}
		}
		b.alltoallv(r, trace.CommWorld, sb)
	}
	tr := b.build(t)
	mach := testMach(t, n)
	res, err := Replay(tr, simnet.PacketFlow, mach, simnet.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total <= 0 {
		t.Error("alltoallv produced zero total")
	}
}

func TestReplaySubCommunicator(t *testing.T) {
	const n = 8
	b := newTB(n)
	evens := []int32{0, 2, 4, 6}
	sub := b.tr.Comms.Add(evens)
	b.tr.Meta.UsesCommSplit = true
	for _, r := range evens {
		b.coll(int(r), trace.OpAllreduce, sub, 0, 4096)
	}
	tr := b.build(t)
	mach := testMach(t, n)
	res, err := Replay(tr, simnet.PacketFlow, mach, simnet.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total <= 0 {
		t.Error("sub-communicator allreduce produced zero total")
	}
	// Flow (SST/Macro 3.0 analog) must refuse comm-split traces.
	if _, err := Replay(tr, simnet.Flow, mach, simnet.Config{}, Options{}); err == nil {
		t.Error("flow model accepted a comm-split trace")
	}
}

func TestReplayUnsupportedThreadMultiple(t *testing.T) {
	b := newTB(2)
	b.compute(0, simtime.Millisecond)
	b.compute(1, simtime.Millisecond)
	tr := b.build(t)
	tr.Meta.UsesThreadMultiple = true
	mach := testMach(t, 2)
	for _, m := range []simnet.Model{simnet.Packet, simnet.Flow} {
		if _, err := Replay(tr, m, mach, simnet.Config{}, Options{}); err == nil {
			t.Errorf("%s accepted a thread-multiple trace", m)
		}
	}
	if _, err := Replay(tr, simnet.PacketFlow, mach, simnet.Config{}, Options{}); err != nil {
		t.Errorf("packet-flow rejected a thread-multiple trace: %v", err)
	}
}

func TestReplayDetectsRendezvousDeadlock(t *testing.T) {
	// Two ranks that both send a rendezvous-sized message before
	// receiving: a classic unsafe MPI program. Validation passes
	// (messages match), but the replay must report the deadlock.
	b := newTB(8)
	big := int64(1 << 20) // above the eager threshold
	b.send(0, 7, 1, big)
	b.recv(0, 7, 2, big)
	b.send(7, 0, 2, big)
	b.recv(7, 0, 1, big)
	tr := b.build(t)
	mach := testMach(t, 8)
	_, err := Replay(tr, simnet.PacketFlow, mach, simnet.Config{}, Options{})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock report", err)
	}
	// The report names the stuck op's peer from its channel.
	if want := "rank 0 stuck at op 0/2 (send(peer=7))"; !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want it to say %q", err, want)
	}

	// A rank stuck in a wait is reported with its request count: rank
	// 0's rendezvous isend needs rank 7's receive, which waits behind a
	// send to rank 0 that only rank 0's receive after the wait matches.
	b = newTB(8)
	b.waitall(0, b.isend(0, 7, 1, big))
	b.recv(0, 7, 2, big)
	b.send(7, 0, 2, big)
	b.recv(7, 0, 1, big)
	_, err = Replay(b.build(t), simnet.PacketFlow, mach, simnet.Config{}, Options{})
	if want := "rank 0 stuck at op 1/3 (wait(requests=1))"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want it to say %q", err, want)
	}
}

func TestReplayEagerCrossDoesNotDeadlock(t *testing.T) {
	// The same exchange with eager-sized messages completes fine.
	b := newTB(8)
	small := int64(1024)
	b.send(0, 7, 1, small)
	b.recv(0, 7, 2, small)
	b.send(7, 0, 2, small)
	b.recv(7, 0, 1, small)
	tr := b.build(t)
	mach := testMach(t, 8)
	if _, err := Replay(tr, simnet.PacketFlow, mach, simnet.Config{}, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestReplayRecordWritesValidTimestamps(t *testing.T) {
	b := newTB(8)
	for r := 0; r < 8; r++ {
		b.compute(r, simtime.Time(r+1)*100*simtime.Microsecond)
		b.coll(r, trace.OpAllreduce, trace.CommWorld, 0, 8192)
		b.compute(r, 50*simtime.Microsecond)
	}
	tr := b.build(t)
	mach := testMach(t, 8)
	res, err := Replay(tr, simnet.PacketFlow, mach, simnet.Config{}, Options{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("recorded trace invalid: %v", err)
	}
	if got := trace.SourceMeasuredTotal(tr); got != res.Total {
		t.Errorf("recorded total %v != replay total %v", got, res.Total)
	}
	// The slowest rank computes 800µs; the allreduce must make everyone
	// wait for it.
	if res.Total < 850*simtime.Microsecond {
		t.Errorf("total %v too small to include the straggler", res.Total)
	}
}

func TestReplayNoiseIncreasesAndIsDeterministic(t *testing.T) {
	b := newTB(8)
	for r := 0; r < 8; r++ {
		for i := 0; i < 20; i++ {
			b.compute(r, simtime.Millisecond)
			b.coll(r, trace.OpBarrier, trace.CommWorld, 0, 0)
		}
	}
	tr := b.build(t)
	mach := testMach(t, 8)
	clean, err := Replay(tr, simnet.PacketFlow, mach, simnet.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	run := func() simtime.Time {
		res, err := Replay(tr, simnet.PacketFlow, mach, simnet.Config{},
			Options{Perturb: DefaultNoise(42, 8)})
		if err != nil {
			t.Fatal(err)
		}
		return res.Total
	}
	n1, n2 := run(), run()
	if n1 != n2 {
		t.Errorf("noise not deterministic: %v vs %v", n1, n2)
	}
	if n1 <= clean.Total {
		t.Errorf("noisy total %v not above clean %v", n1, clean.Total)
	}
}

func TestReplayLoadImbalanceShowsAsCommTime(t *testing.T) {
	// One slow rank: the others' barrier wait shows up as comm time.
	b := newTB(4)
	for r := 0; r < 4; r++ {
		d := simtime.Millisecond
		if r == 0 {
			d = 10 * simtime.Millisecond
		}
		b.compute(r, d)
		b.coll(r, trace.OpBarrier, trace.CommWorld, 0, 0)
	}
	tr := b.build(t)
	mach := testMach(t, 4)
	res, err := Replay(tr, simnet.PacketFlow, mach, simnet.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Ranks 1..3 each wait ~9ms; average comm ≈ 27/4 ≈ 6.75ms.
	if res.Comm < 5*simtime.Millisecond {
		t.Errorf("comm = %v, want > 5ms of imbalance wait", res.Comm)
	}
	if res.Total < 10*simtime.Millisecond {
		t.Errorf("total = %v, want ≥ 10ms", res.Total)
	}
}

func TestReplayEventsCounted(t *testing.T) {
	b := newTB(16) // 4 nodes at 4 ranks/node, so traffic crosses the network
	for r := 0; r < 16; r++ {
		b.coll(r, trace.OpAlltoall, trace.CommWorld, 0, 64<<10)
	}
	tr := b.build(t)
	mach := testMach(t, 16)
	pkt, err := Replay(tr, simnet.Packet, mach, simnet.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pfl, err := Replay(tr, simnet.PacketFlow, mach, simnet.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pkt.Events <= pfl.Events {
		t.Errorf("packet events %d not above packet-flow %d (1KiB vs 4KiB packets)", pkt.Events, pfl.Events)
	}
	if pkt.Net.Packets <= pfl.Net.Packets {
		t.Errorf("packet packets %d not above packet-flow %d", pkt.Net.Packets, pfl.Net.Packets)
	}
}
