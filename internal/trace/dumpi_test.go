package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpctradeoff/internal/simtime"
)

// dumpiRanks opens the two-rank fixture under testdata/dumpi (the same
// files the tools smoke test converts with dumpiconv).
func dumpiRanks(t testing.TB) []io.Reader {
	t.Helper()
	var rs []io.Reader
	for _, name := range []string{"rank0.txt", "rank1.txt"} {
		b, err := os.ReadFile(filepath.Join("testdata", "dumpi", name))
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, bytes.NewReader(b))
	}
	return rs
}

func TestReadDUMPIASCII(t *testing.T) {
	tr, err := ReadDUMPIASCII(
		Meta{App: "imported", Class: "X", Machine: "edison", NumRanks: 2}, dumpiRanks(t))
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0: compute(gap to isend), isend, compute, wait, compute, allreduce.
	rank0 := rankEvents(tr, 0)
	ops := []Op{}
	for _, e := range rank0 {
		ops = append(ops, e.Op)
	}
	want := []Op{OpCompute, OpIsend, OpCompute, OpWait, OpCompute, OpAllreduce}
	if len(ops) != len(want) {
		t.Fatalf("rank 0 ops = %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("rank 0 ops = %v, want %v", ops, want)
		}
	}
	isend := rank0[1]
	if isend.Bytes != 1024*8 {
		t.Errorf("isend bytes = %d, want 8192 (1024 doubles)", isend.Bytes)
	}
	if isend.Peer != 1 || isend.Tag != 7 || isend.Req != 3 {
		t.Errorf("isend fields: %+v", isend)
	}
	if isend.Entry != simtime.FromSeconds(0.001) {
		t.Errorf("isend entry = %v", isend.Entry)
	}
	ar := rank0[5]
	if ar.Op != OpAllreduce || ar.Bytes != 16 {
		t.Errorf("allreduce: %+v", ar)
	}
	// MPI_Init was skipped; its time became compute.
	if rank0[0].Op != OpCompute || rank0[0].Exit != simtime.FromSeconds(0.001) {
		t.Errorf("leading compute: %+v", rank0[0])
	}
}

func TestReadDUMPIASCIIWaitall(t *testing.T) {
	r0 := `
MPI_Irecv entering at walltime 0.001.
  int count=4
  MPI_Datatype datatype=6 (MPI_INT)
  int source=1
  int tag=0
  MPI_Comm comm=2 (MPI_COMM_WORLD)
  MPI_Request request=0
MPI_Irecv returning at walltime 0.0011.
MPI_Waitall entering at walltime 0.002.
  MPI_Request requests=[0]
MPI_Waitall returning at walltime 0.003.
`
	r1 := `
MPI_Send entering at walltime 0.0005.
  int count=4
  MPI_Datatype datatype=6 (MPI_INT)
  int dest=0
  int tag=0
  MPI_Comm comm=2 (MPI_COMM_WORLD)
MPI_Send returning at walltime 0.0006.
`
	tr, err := ReadDUMPIASCII(Meta{App: "w", NumRanks: 2},
		[]io.Reader{strings.NewReader(r0), strings.NewReader(r1)})
	if err != nil {
		t.Fatal(err)
	}
	var wa *Event
	rank0 := rankEvents(tr, 0)
	for i := range rank0 {
		if rank0[i].Op == OpWaitall {
			wa = &rank0[i]
		}
	}
	if wa == nil || len(wa.Reqs) != 1 || wa.Reqs[0] != 0 {
		t.Fatalf("waitall not parsed: %+v", wa)
	}
	if send := rankEvents(tr, 1)[1]; send.Bytes != 16 {
		t.Errorf("send bytes = %d, want 16", send.Bytes)
	}
}

func TestReadDUMPIASCIIErrors(t *testing.T) {
	cases := []struct {
		name  string
		rank0 string
	}{
		{"nested call", "MPI_Send entering at walltime 0.1.\nMPI_Recv entering at walltime 0.2.\n"},
		{"unmatched return", "MPI_Send returning at walltime 0.1.\n"},
		{"eof inside call", "MPI_Send entering at walltime 0.1.\n  int dest=1\n"},
		{"missing peer", "MPI_Send entering at walltime 0.1.\n  int count=1\nMPI_Send returning at walltime 0.2.\n"},
		{"bad walltime", "MPI_Send entering at walltime xyz.\n"},
		{"time reversal", `MPI_Barrier entering at walltime 0.5.
MPI_Comm comm=2 (MPI_COMM_WORLD)
MPI_Barrier returning at walltime 0.6.
MPI_Barrier entering at walltime 0.1.
MPI_Comm comm=2 (MPI_COMM_WORLD)
MPI_Barrier returning at walltime 0.2.
`},
		{"sub-communicator", `MPI_Barrier entering at walltime 0.1.
MPI_Comm comm=5 (user comm)
MPI_Barrier returning at walltime 0.2.
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadDUMPIASCII(Meta{App: "e", NumRanks: 1},
				[]io.Reader{strings.NewReader(tc.rank0)})
			if err == nil {
				t.Fatal("accepted bad input")
			}
		})
	}
	if _, err := ReadDUMPIASCII(Meta{NumRanks: 2}, []io.Reader{strings.NewReader("")}); err == nil {
		t.Fatal("stream count mismatch accepted")
	}
}

func TestDumpiImportReplayable(t *testing.T) {
	// The imported trace must validate (it did, inside ReadDUMPIASCII)
	// and round-trip through the binary codec.
	tr, err := ReadDUMPIASCII(Meta{App: "imported", NumRanks: 2}, dumpiRanks(t))
	if err != nil {
		t.Fatal(err)
	}
	back, err := parseV3(encodeV3(t, tr), false)
	if err != nil {
		t.Fatal(err)
	}
	requireSameEvents(t, tr, back)
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped import invalid: %v", err)
	}
}
