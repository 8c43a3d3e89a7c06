package mpisim

import (
	"reflect"
	"testing"

	"hpctradeoff/internal/simnet"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/trace"
)

// sameResult holds a session replay to a stateless one in everything a
// replay reports.
func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if got.Total != want.Total || got.Comm != want.Comm || got.Events != want.Events ||
		!reflect.DeepEqual(got.RankFinish, want.RankFinish) || !reflect.DeepEqual(got.RankComm, want.RankComm) {
		t.Fatalf("%s: session replay diverged from the stateless one:\ngot  total=%v comm=%v events=%d\nwant total=%v comm=%v events=%d",
			what, got.Total, got.Comm, got.Events, want.Total, want.Comm, want.Events)
	}
}

// ringTrace is a small nonblocking ring exchange with an allreduce per
// iteration; compute scales the compute phases, so two ringTraces of
// different scale have identical shape (ranks, events per rank,
// channels) and different timing.
func ringTrace(t *testing.T, ranks int, compute simtime.Time) *trace.Trace {
	b := newTB(ranks)
	for it := 0; it < 3; it++ {
		for r := 0; r < ranks; r++ {
			b.compute(r, compute*simtime.Time(1+r%3))
			rq := b.irecv(r, (r+ranks-1)%ranks, 5, 48<<10)
			sq := b.isend(r, (r+1)%ranks, 5, 48<<10)
			b.waitall(r, rq, sq)
			b.coll(r, trace.OpAllreduce, trace.CommWorld, 0, 64)
		}
	}
	return b.build(t)
}

// TestSessionLowersOncePerTrace replays one trace on all three network
// models through one session — one lowering, three replays — and then
// moves on through traces of the same shape but different timing. Every
// replay must equal a stateless one: the kept program serves all models
// unchanged, and Reset really does drop it (the shape check in mustFit
// cannot tell these traces apart).
func TestSessionLowersOncePerTrace(t *testing.T) {
	const ranks = 8
	mach := testMach(t, ranks)
	a := ringTrace(t, ranks, 20*simtime.Microsecond)
	b := ringTrace(t, ranks, 90*simtime.Microsecond)
	sess := NewSession()
	for i, tr := range []*trace.Trace{a, b, a} {
		sess.Reset()
		for _, m := range simnet.Models() {
			got, err := sess.Replay(tr, m, mach, simnet.Config{}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 && sess.prog == nil {
				t.Fatal("session kept no program after a replay")
			}
			want, err := ReplaySource(tr, m, mach, simnet.Config{}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, string(m), got, want)
		}
	}
	// The two traces do differ, so a stale program would have shown.
	ra, _ := ReplaySource(a, simnet.Packet, mach, simnet.Config{}, Options{})
	rb, _ := ReplaySource(b, simnet.Packet, mach, simnet.Config{}, Options{})
	if ra.Total == rb.Total {
		t.Fatal("test traces are not distinguishable by their totals")
	}
}

// TestSessionMissingResetPanics pins the misuse guard: a session that
// is handed a differently shaped trace without a Reset in between must
// not replay the old program under the new trace's name.
func TestSessionMissingResetPanics(t *testing.T) {
	mach := testMach(t, 8)
	sess := NewSession()
	if _, err := sess.Replay(ringTrace(t, 8, simtime.Microsecond), simnet.Flow, mach, simnet.Config{}, Options{}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("replaying another trace without Reset did not panic")
		}
	}()
	sess.Replay(ringTrace(t, 4, simtime.Microsecond), simnet.Flow, mach, simnet.Config{}, Options{})
}

// TestSessionRecordingReplayKeepsNoProgram is the cold path in one
// session: a replay keeps a program, a recording (stamping) replay then
// rewrites the event times lowering reads, and the replays after it
// must see the stamped trace — not the program from before, and not the
// recording replay's own.
func TestSessionRecordingReplayKeepsNoProgram(t *testing.T) {
	const ranks = 8
	mach := testMach(t, ranks)
	tr := ringTrace(t, ranks, 50*simtime.Microsecond)
	sess := NewSession()
	before, err := sess.Replay(tr, simnet.Packet, mach, simnet.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Stamp at half compute speed, so every compute duration changes.
	if _, err := sess.Replay(tr, simnet.PacketFlow, mach, simnet.Config{}, Options{Record: true, CompScale: 2}); err != nil {
		t.Fatal(err)
	}
	if sess.prog != nil {
		t.Fatal("a recording replay left a program in the session")
	}
	for _, m := range simnet.Models() {
		got, err := sess.Replay(tr, m, mach, simnet.Config{}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ReplaySource(tr, m, mach, simnet.Config{}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, string(m)+" after stamping", got, want)
		if m == simnet.Packet && got.Total == before.Total {
			t.Fatal("stamping did not change the packet prediction; the test cannot see a stale program")
		}
	}
}

// TestSessionSurvivesRefusedAndFailedReplays runs replays that stop
// early — a capability refusal before lowering, a deadlock that leaves
// records queued in the channels, a blown event budget that leaves
// records in flight — and checks the session still replays the next
// trace exactly.
func TestSessionSurvivesRefusedAndFailedReplays(t *testing.T) {
	const ranks = 8
	mach := testMach(t, ranks)
	good := ringTrace(t, ranks, 30*simtime.Microsecond)
	sess := NewSession()
	check := func(after string) {
		t.Helper()
		sess.Reset()
		for _, m := range simnet.Models() {
			got, err := sess.Replay(good, m, mach, simnet.Config{}, Options{})
			if err != nil {
				t.Fatalf("after %s: %v", after, err)
			}
			want, _ := ReplaySource(good, m, mach, simnet.Config{}, Options{})
			sameResult(t, string(m)+" after "+after, got, want)
		}
	}
	check("nothing")

	refused := ringTrace(t, ranks, 30*simtime.Microsecond)
	refused.Meta.UsesCommSplit = true
	sess.Reset()
	if _, err := sess.Replay(refused, simnet.Flow, mach, simnet.Config{}, Options{}); err == nil {
		t.Fatal("flow accepted a comm-split trace")
	}
	// The refusal happened before lowering: the next model must lower
	// and replay as if flow had never been asked.
	got, err := sess.Replay(refused, simnet.PacketFlow, mach, simnet.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ReplaySource(refused, simnet.PacketFlow, mach, simnet.Config{}, Options{})
	sameResult(t, "packetflow after a refused flow", got, want)
	check("a refusal")

	// Every pair sends rendezvous-sized messages head to head: all the
	// sends queue unmatched and no receive is ever posted.
	b := newTB(ranks)
	for r := 0; r < ranks; r++ {
		peer := r ^ 1
		b.send(r, peer, 1+r, 1<<20)
		b.recv(r, peer, 1+peer, 1<<20)
	}
	sess.Reset()
	if _, err := sess.Replay(b.build(t), simnet.Packet, mach, simnet.Config{}, Options{}); err == nil {
		t.Fatal("deadlocked trace replayed")
	}
	check("a deadlock")

	sess.Reset()
	if _, err := sess.Replay(good, simnet.Packet, mach, simnet.Config{}, Options{MaxEvents: 200}); err == nil {
		t.Fatal("event budget not enforced")
	}
	check("a blown budget")
}

// TestManyInFlightMessagesMatchInPostingOrder queues many unmatched
// sends, and then many unmatched receives, on a single (src, dst, tag,
// comm), with sizes that straddle the eager threshold so that matching
// the wrong pair changes what completes when. The reference is the same
// exchange with one tag per message, where only message k can match
// receive k.
func TestManyInFlightMessagesMatchInPostingOrder(t *testing.T) {
	const n = 40
	mach := testMach(t, 2)
	size := func(k int) int64 {
		if k%3 == 0 {
			return mach.EagerThreshold + int64(k+1)<<10 // rendezvous
		}
		return int64(64 + 257*k%4096) // eager
	}
	build := func(oneTag, sendsFirst bool) *trace.Trace {
		b := newTB(2)
		tag := func(k int) int {
			if oneTag {
				return 7
			}
			return 100 + k
		}
		late := 0 // the rank whose n ops find the other side's already queued
		if sendsFirst {
			late = 1
		}
		b.compute(late, 5*simtime.Millisecond)
		var sreqs, rreqs []int32
		for k := 0; k < n; k++ {
			sreqs = append(sreqs, b.isend(0, 1, tag(k), size(k)))
			rreqs = append(rreqs, b.irecv(1, 0, tag(k), size(k)))
		}
		// Receives are waited on one at a time, newest first, so each
		// request's own completion time shows in the rank's timeline.
		for k := n - 1; k >= 0; k-- {
			b.waitall(1, rreqs[k])
			b.compute(1, simtime.Microsecond)
		}
		b.waitall(0, sreqs...)
		return b.build(t)
	}
	for _, sendsFirst := range []bool{true, false} {
		for _, m := range simnet.Models() {
			got, err := Replay(build(true, sendsFirst), m, mach, simnet.Config{}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := Replay(build(false, sendsFirst), m, mach, simnet.Config{}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, string(m), got, want)
		}
	}
	// The sizes must matter: reversing which receive gets which message
	// has to be visible, or the comparison above proves nothing.
	b := newTB(2)
	b.compute(1, 5*simtime.Millisecond)
	var sreqs, rreqs []int32
	for k := 0; k < n; k++ {
		sreqs = append(sreqs, b.isend(0, 1, 100+k, size(k)))
		rreqs = append(rreqs, b.irecv(1, 0, 100+(n-1-k), size(n-1-k)))
	}
	for k := n - 1; k >= 0; k-- {
		b.waitall(1, rreqs[k])
		b.compute(1, simtime.Microsecond)
	}
	b.waitall(0, sreqs...)
	crossed, err := Replay(b.build(t), simnet.Packet, mach, simnet.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	straight, _ := Replay(build(false, true), simnet.Packet, mach, simnet.Config{}, Options{})
	if reflect.DeepEqual(crossed.RankComm, straight.RankComm) {
		t.Fatal("crossing the matches changes nothing; the posting-order check is blind")
	}
}
