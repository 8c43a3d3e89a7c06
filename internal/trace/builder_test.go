package trace

import (
	"reflect"
	"slices"
	"testing"

	"hpctradeoff/internal/simtime"
)

func TestBuilderFullSurface(t *testing.T) {
	b := NewBuilder(Meta{App: "b", NumRanks: 4})
	sub := b.AddComm([]int32{0, 1})
	if b.Comms().Size(sub) != 2 {
		t.Fatalf("sub comm size = %d", b.Comms().Size(sub))
	}

	b.Compute(0, simtime.Millisecond)
	b.Send(0, 1, 3, 128, CommWorld)
	b.Recv(1, 0, 3, 128, CommWorld)

	r := b.Irecv(2, 3, 9, 64, CommWorld)
	s := b.Isend(2, 3, 10, 32, CommWorld)
	b.Waitall(2, r, s)
	b.Wait(3, b.Isend(3, 2, 9, 64, CommWorld))
	b.Recv(3, 2, 10, 32, CommWorld)

	// waitOpen drains everything outstanding (and is a no-op when
	// nothing is pending).
	q1 := b.Irecv(0, 1, 20, 16, CommWorld)
	q2 := b.Irecv(0, 1, 21, 16, CommWorld)
	_ = q1
	_ = q2
	waitOpen(b, 0)
	waitOpen(b, 0) // nothing open now
	b.Send(1, 0, 20, 16, CommWorld)
	b.Send(1, 0, 21, 16, CommWorld)

	b.Collective(0, OpAllreduce, sub, 0, 8)
	b.Collective(1, OpAllreduce, sub, 0, 8)
	b.Alltoallv(0, sub, []int64{0, 5})
	b.Alltoallv(1, sub, []int64{7, 0})

	tr, err := b.BuildColumns()
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Meta.UsesCommSplit {
		t.Error("AddComm should set the comm-split flag")
	}
	// WaitOpen emitted one waitall with both requests.
	var wa *Event
	evs := rankEvents(tr, 0)
	for i := range evs {
		if evs[i].Op == OpWaitall {
			wa = &evs[i]
		}
	}
	if wa == nil || len(wa.Reqs) != 2 {
		t.Fatalf("WaitOpen waitall: %+v", wa)
	}
	// Deterministic request order.
	if wa.Reqs[0] > wa.Reqs[1] {
		t.Error("WaitOpen requests not sorted")
	}
}

func TestBuilderProducesInvalidTraceError(t *testing.T) {
	b := NewBuilder(Meta{App: "bad", NumRanks: 2})
	b.Send(0, 1, 0, 64, CommWorld) // never received
	if _, err := b.BuildColumns(); err == nil {
		t.Fatal("unmatched send accepted by BuildColumns")
	}
}

func TestBuilderWaitallEmptyNoop(t *testing.T) {
	b := NewBuilder(Meta{App: "n", NumRanks: 2})
	b.Waitall(0) // no requests: must emit nothing
	b.Compute(0, 1)
	b.Compute(1, 1)
	tr, err := b.BuildColumns()
	if err != nil {
		t.Fatal(err)
	}
	if tr.RankLen(0) != 1 {
		t.Errorf("rank 0 has %d events, want 1", tr.RankLen(0))
	}
}

// TestBuildColumnsExactSize: every column and arena of a built trace
// has no spare capacity, whatever the appends left.
func TestBuildColumnsExactSize(t *testing.T) {
	b := NewBuilder(Meta{App: "exact", NumRanks: 3})
	for i := 0; i < 37; i++ {
		b.Compute(0, simtime.Microsecond)
		b.Wait(0, b.Isend(0, 1, 1, 64, CommWorld))
		b.Recv(1, 0, 1, 64, CommWorld)
		b.Waitall(2, b.Irecv(2, 1, 2, 8, CommWorld), b.Irecv(2, 1, 3, 8, CommWorld))
		b.Send(1, 2, 2, 8, CommWorld)
		b.Send(1, 2, 3, 8, CommWorld)
	}
	for r := 0; r < 3; r++ {
		b.Alltoallv(r, CommWorld, []int64{1, 2, 3})
	}
	tr, err := b.BuildColumns()
	if err != nil {
		t.Fatal(err)
	}
	for r := range tr.ranks {
		v := reflect.ValueOf(tr.ranks[r])
		for f := 0; f < v.NumField(); f++ {
			if col := v.Field(f); col.Cap() != col.Len() {
				t.Errorf("rank %d %s: cap %d, len %d", r, v.Type().Field(f).Name, col.Cap(), col.Len())
			}
		}
	}
}

// waitOpen appends a waitall on every request rank r has issued and
// not yet waited on, in request order.
func waitOpen(b *Builder, r int) {
	open := map[int32]bool{}
	var e Event
	for i := 0; i < b.cols.RankLen(r); i++ {
		b.cols.EventAt(r, i, &e)
		switch e.Op {
		case OpIsend, OpIrecv:
			open[e.Req] = true
		case OpWait:
			delete(open, e.Req)
		case OpWaitall:
			for _, q := range e.Reqs {
				delete(open, q)
			}
		}
	}
	reqs := make([]int32, 0, len(open))
	for q := range open {
		reqs = append(reqs, q)
	}
	slices.Sort(reqs)
	b.Waitall(r, reqs...)
}
