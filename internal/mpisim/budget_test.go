package mpisim

import (
	"errors"
	"strings"
	"testing"
	"time"

	"hpctradeoff/internal/des"
	"hpctradeoff/internal/simnet"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/trace"
)

// busyTrace builds a long but perfectly legal trace: every rank
// alternates compute with a ring exchange, generating plenty of DES
// events for the budget to cut off.
func busyTrace(t *testing.T, ranks, rounds int) *trace.Columns {
	t.Helper()
	b := newTB(ranks)
	for i := 0; i < rounds; i++ {
		for r := 0; r < ranks; r++ {
			b.compute(r, simtime.Microsecond)
		}
		for r := 0; r < ranks; r++ {
			rq := b.irecv(r, (r+ranks-1)%ranks, i, 1024)
			sq := b.isend(r, (r+1)%ranks, i, 1024)
			b.waitall(r, rq, sq)
		}
	}
	return b.build(t)
}

func TestReplayMaxEvents(t *testing.T) {
	tr := busyTrace(t, 4, 100)
	mach := testMach(t, 4)
	_, err := Replay(tr, simnet.PacketFlow, mach, simnet.Config{}, Options{MaxEvents: 64})
	if !errors.Is(err, des.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if !strings.Contains(err.Error(), "aborted") {
		t.Errorf("error %q does not say the replay was aborted", err)
	}
	// A truncated run must NOT be misreported as a deadlock.
	if errors.Is(err, ErrDeadlock) {
		t.Errorf("budget abort misclassified as deadlock: %v", err)
	}
}

func TestReplayDeadlinePassed(t *testing.T) {
	tr := busyTrace(t, 4, 100)
	mach := testMach(t, 4)
	_, err := Replay(tr, simnet.PacketFlow, mach, simnet.Config{},
		Options{Deadline: time.Now().Add(-time.Hour)})
	if !errors.Is(err, des.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestReplayWithinBudgetSucceeds(t *testing.T) {
	tr := busyTrace(t, 4, 3)
	mach := testMach(t, 4)
	res, err := Replay(tr, simnet.PacketFlow, mach, simnet.Config{},
		Options{MaxEvents: 10_000_000, Deadline: time.Now().Add(time.Minute)})
	if err != nil {
		t.Fatalf("replay inside budget failed: %v", err)
	}
	if res.Total <= 0 {
		t.Errorf("predicted total = %v, want > 0", res.Total)
	}
}

func TestReplayDeadlockIsTyped(t *testing.T) {
	// Rank 0 receives a message nobody sends. Validate would
	// reject this, so assemble it by hand (Replay does not re-validate
	// — corrupt converted traces reach it as-is).
	tr := trace.NewColumns(trace.Meta{App: "dl", Class: "T", Machine: "cielito", NumRanks: 2, RanksPerNode: 2})
	tr.Append(0, &trace.Event{Op: trace.OpRecv, Peer: 1, Tag: 7, Bytes: 64, Comm: trace.CommWorld, Req: trace.NoReq})
	tr.Append(1, &trace.Event{Op: trace.OpCompute, Peer: trace.NoPeer, Req: trace.NoReq, Exit: simtime.Microsecond})
	mach := testMach(t, 2)
	_, err := Replay(tr, simnet.PacketFlow, mach, simnet.Config{}, Options{})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestReplayUnknownRequestDiagnosed(t *testing.T) {
	// A wait on a request that was never posted. The builder can't
	// express this (it hands out real request IDs), so assemble the
	// trace by hand; Replay does not re-validate.
	tr := trace.NewColumns(trace.Meta{App: "bad", Class: "T", Machine: "cielito", NumRanks: 1, RanksPerNode: 1})
	tr.Append(0, &trace.Event{Op: trace.OpWait, Peer: trace.NoPeer, Req: 42})
	mach := testMach(t, 1)
	_, err := Replay(tr, simnet.PacketFlow, mach, simnet.Config{}, Options{})
	if !errors.Is(err, ErrUnknownRequest) {
		t.Fatalf("err = %v, want ErrUnknownRequest", err)
	}
	for _, want := range []string{"rank 0", "request 42"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestReplayMaxEventsIsLogical pins MaxEvents to the logical event
// count on replays that key most of their request completions: a cap
// of exactly Result.Events lets the replay finish with the same
// result, and one event less — or a cap at the popped count — fails
// it with the typed budget error. A compute-only replay keys nothing.
func TestReplayMaxEventsIsLogical(t *testing.T) {
	tr := busyTrace(t, 8, 20)
	mach := testMach(t, 8)
	for _, m := range simnet.Models() {
		full, err := Replay(tr, m, mach, simnet.Config{}, Options{})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if full.Popped >= full.Events {
			t.Fatalf("%s: %d popped of %d events; the ring exchange should key completions", m, full.Popped, full.Events)
		}
		capped, err := Replay(tr, m, mach, simnet.Config{}, Options{MaxEvents: full.Events})
		if err != nil {
			t.Fatalf("%s: capped at its own %d events: %v", m, full.Events, err)
		}
		if capped.Total != full.Total || capped.Events != full.Events || capped.Popped != full.Popped {
			t.Errorf("%s: capped run %+v differs from the free one %+v", m, capped, full)
		}
		for _, limit := range []uint64{full.Events - 1, full.Popped} {
			_, err := Replay(tr, m, mach, simnet.Config{}, Options{MaxEvents: limit})
			if !errors.Is(err, des.ErrBudgetExceeded) {
				t.Errorf("%s: cap %d of %d logical events: err = %v, want ErrBudgetExceeded", m, limit, full.Events, err)
			}
		}
	}

	b := newTB(4)
	for r := 0; r < 4; r++ {
		b.compute(r, simtime.Millisecond)
	}
	res, err := Replay(b.build(t), simnet.Packet, testMach(t, 4), simnet.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != res.Popped || res.Events != 8 {
		t.Errorf("compute-only replay: %d events, %d popped; want 8 and 8", res.Events, res.Popped)
	}
}
