package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hpctradeoff/internal/simtime"
)

// DUMPI ASCII importer. The study's original traces are DUMPI binary
// files, conventionally inspected through SST's dumpi2ascii tool. This
// reader accepts a documented subset of that textual form — one file
// per rank — so real dumps (or hand-written ones) can feed the
// modeling and simulation tools.
//
// Accepted grammar, per MPI call:
//
//	MPI_<Name> entering at walltime <sec>[, ...]
//	[<type> <field>=<value>[ (...)] lines, one per argument]
//	MPI_<Name> returning at walltime <sec>[, ...]
//
// Recognized calls: Send, Isend, Recv, Irecv, Wait, Waitall, Barrier,
// Bcast, Reduce, Allreduce, Gather, Allgather, Scatter, Alltoall,
// Alltoallv, Reduce_scatter. Recognized fields: count, datatype, dest,
// source, tag, comm, root, request, requests, sendcounts. Datatypes
// may be numeric with a parenthesized name, e.g. "2 (MPI_CHAR)"; sizes
// follow the usual MPI type widths. Unrecognized calls and fields are
// skipped. Time between calls becomes computation.
//
// Because DUMPI records per-rank local views, communicators other than
// MPI_COMM_WORLD cannot be reconstructed from the dump alone; calls on
// other communicators are rejected.

// datatypeBytes maps MPI datatype names to their widths.
var datatypeBytes = map[string]int64{
	"MPI_CHAR": 1, "MPI_SIGNED_CHAR": 1, "MPI_UNSIGNED_CHAR": 1, "MPI_BYTE": 1,
	"MPI_SHORT": 2, "MPI_UNSIGNED_SHORT": 2,
	"MPI_INT": 4, "MPI_UNSIGNED": 4, "MPI_FLOAT": 4,
	"MPI_LONG": 8, "MPI_UNSIGNED_LONG": 8, "MPI_DOUBLE": 8,
	"MPI_LONG_LONG": 8, "MPI_UNSIGNED_LONG_LONG": 8, "MPI_LONG_LONG_INT": 8,
	"MPI_LONG_DOUBLE": 16,
}

// dumpiOps maps MPI call names to trace operations.
var dumpiOps = map[string]Op{
	"MPI_Send": OpSend, "MPI_Isend": OpIsend,
	"MPI_Recv": OpRecv, "MPI_Irecv": OpIrecv,
	"MPI_Wait": OpWait, "MPI_Waitall": OpWaitall,
	"MPI_Barrier": OpBarrier, "MPI_Bcast": OpBcast,
	"MPI_Reduce": OpReduce, "MPI_Allreduce": OpAllreduce,
	"MPI_Gather": OpGather, "MPI_Allgather": OpAllgather,
	"MPI_Scatter": OpScatter, "MPI_Alltoall": OpAlltoall,
	"MPI_Alltoallv": OpAlltoallv, "MPI_Reduce_scatter": OpReduceScatter,
}

// ReadDUMPIASCII parses one dumpi2ascii-style stream per rank and
// assembles a trace. meta supplies identity; its NumRanks must equal
// len(rankStreams).
func ReadDUMPIASCII(meta Meta, rankStreams []io.Reader) (*Columns, error) {
	if meta.NumRanks != len(rankStreams) {
		return nil, fmt.Errorf("trace: meta says %d ranks, got %d streams", meta.NumRanks, len(rankStreams))
	}
	c := NewColumns(meta)
	for r, in := range rankStreams {
		if err := parseDumpiRank(in, c, r); err != nil {
			return nil, fmt.Errorf("trace: rank %d: %w", r, err)
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// dumpiCall accumulates one call's fields.
type dumpiCall struct {
	name     string
	enter    simtime.Time
	count    int64
	dtBytes  int64
	peer     int32
	hasPeer  bool
	tag      int32
	root     int32
	request  int32
	hasReq   bool
	requests []int32
	sendcnts []int64
	worldOK  bool
	sawComm  bool
}

// parseDumpiRank appends one rank's stream to c's rank r.
func parseDumpiRank(in io.Reader, c *Columns, r int) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var cur *dumpiCall
	cursor := simtime.Time(0)
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" || strings.HasPrefix(raw, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(raw, "MPI_") && strings.Contains(raw, " entering at walltime "):
			if cur != nil {
				return fmt.Errorf("line %d: %s entered while %s is open", line, firstWord(raw), cur.name)
			}
			name := firstWord(raw)
			at, err := walltime(raw)
			if err != nil {
				return fmt.Errorf("line %d: %v", line, err)
			}
			cur = &dumpiCall{name: name, enter: at, dtBytes: 1, peer: NoPeer, worldOK: true}

		case strings.HasPrefix(raw, "MPI_") && strings.Contains(raw, " returning at walltime "):
			if cur == nil || firstWord(raw) != cur.name {
				return fmt.Errorf("line %d: unmatched return %q", line, firstWord(raw))
			}
			exit, err := walltime(raw)
			if err != nil {
				return fmt.Errorf("line %d: %v", line, err)
			}
			ev, keep, err := cur.event(exit)
			if err != nil {
				return fmt.Errorf("line %d: %s: %v", line, cur.name, err)
			}
			if keep {
				if ev.Entry < cursor {
					return fmt.Errorf("line %d: %s walltime goes backwards", line, cur.name)
				}
				if ev.Entry > cursor {
					c.Append(r, &Event{Op: OpCompute, Entry: cursor, Exit: ev.Entry, Peer: NoPeer, Req: NoReq})
				}
				c.Append(r, &ev)
				cursor = ev.Exit
			}
			cur = nil

		case cur != nil && strings.Contains(raw, "="):
			if err := cur.field(raw); err != nil {
				return fmt.Errorf("line %d: %v", line, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if cur != nil {
		return fmt.Errorf("stream ends inside %s", cur.name)
	}
	return nil
}

func firstWord(s string) string {
	if i := strings.IndexByte(s, ' '); i > 0 {
		return s[:i]
	}
	return s
}

// walltime extracts the number after "at walltime ".
func walltime(s string) (simtime.Time, error) {
	const key = "at walltime "
	i := strings.Index(s, key)
	if i < 0 {
		return 0, fmt.Errorf("no walltime in %q", s)
	}
	rest := s[i+len(key):]
	end := strings.IndexAny(rest, ", ")
	if end < 0 {
		end = len(rest)
	}
	sec, err := strconv.ParseFloat(strings.TrimSuffix(rest[:end], "."), 64)
	if err != nil {
		return 0, fmt.Errorf("bad walltime %q", rest[:end])
	}
	return simtime.FromSeconds(sec), nil
}

// field parses one "type name=value [...]" argument line.
func (c *dumpiCall) field(raw string) error {
	eq := strings.IndexByte(raw, '=')
	left, right := raw[:eq], strings.TrimSpace(raw[eq+1:])
	name := left
	if i := strings.LastIndexByte(left, ' '); i >= 0 {
		name = left[i+1:]
	}
	// Values may carry a parenthesized annotation: "2 (MPI_CHAR)".
	valStr := right
	annot := ""
	if i := strings.IndexByte(right, '('); i >= 0 {
		valStr = strings.TrimSpace(right[:i])
		annot = strings.Trim(right[i:], "() ")
	}
	switch name {
	case "count", "sendcount":
		v, err := strconv.ParseInt(valStr, 10, 64)
		if err != nil {
			return fmt.Errorf("bad count %q", right)
		}
		c.count = v
	case "datatype", "sendtype":
		if b, ok := datatypeBytes[annot]; ok {
			c.dtBytes = b
		} else if b, ok := datatypeBytes[valStr]; ok {
			c.dtBytes = b
		}
		// Unknown datatypes keep width 1 (bytes).
	case "dest", "source":
		v, err := strconv.ParseInt(valStr, 10, 32)
		if err != nil {
			return fmt.Errorf("bad %s %q", name, right)
		}
		c.peer = int32(v)
		c.hasPeer = true
	case "tag":
		v, err := strconv.ParseInt(valStr, 10, 32)
		if err != nil {
			return fmt.Errorf("bad tag %q", right)
		}
		c.tag = int32(v)
	case "root":
		v, err := strconv.ParseInt(valStr, 10, 32)
		if err != nil {
			return fmt.Errorf("bad root %q", right)
		}
		c.root = int32(v)
	case "comm":
		c.sawComm = true
		c.worldOK = valStr == "2" || annot == "MPI_COMM_WORLD" || valStr == "MPI_COMM_WORLD"
	case "request":
		v, err := strconv.ParseInt(valStr, 10, 32)
		if err != nil {
			return fmt.Errorf("bad request %q", right)
		}
		c.request = int32(v)
		c.hasReq = true
	case "requests":
		for _, f := range strings.FieldsFunc(valStr, func(r rune) bool { return r == '[' || r == ']' || r == ',' || r == ' ' }) {
			v, err := strconv.ParseInt(f, 10, 32)
			if err != nil {
				return fmt.Errorf("bad requests %q", right)
			}
			c.requests = append(c.requests, int32(v))
		}
	case "sendcounts":
		for _, f := range strings.FieldsFunc(valStr, func(r rune) bool { return r == '[' || r == ']' || r == ',' || r == ' ' }) {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return fmt.Errorf("bad sendcounts %q", right)
			}
			c.sendcnts = append(c.sendcnts, v)
		}
	}
	return nil
}

// event converts the accumulated call into a trace event. keep=false
// skips unrecognized calls (treated as compute time).
func (c *dumpiCall) event(exit simtime.Time) (Event, bool, error) {
	op, ok := dumpiOps[c.name]
	if !ok {
		return Event{}, false, nil
	}
	if c.sawComm && !c.worldOK {
		return Event{}, false, fmt.Errorf("only MPI_COMM_WORLD dumps are importable")
	}
	e := Event{Op: op, Entry: c.enter, Exit: exit, Peer: NoPeer, Req: NoReq, Comm: CommWorld}
	bytes := c.count * c.dtBytes
	switch op {
	case OpSend, OpIsend, OpRecv, OpIrecv:
		if !c.hasPeer {
			return Event{}, false, fmt.Errorf("missing dest/source")
		}
		e.Peer = c.peer
		e.Tag = c.tag
		e.Bytes = bytes
		if op == OpIsend || op == OpIrecv {
			if !c.hasReq {
				return Event{}, false, fmt.Errorf("missing request")
			}
			e.Req = c.request
		}
	case OpWait:
		if !c.hasReq {
			return Event{}, false, fmt.Errorf("missing request")
		}
		e.Req = c.request
	case OpWaitall:
		if len(c.requests) == 0 {
			return Event{}, false, fmt.Errorf("missing requests")
		}
		e.Reqs = c.requests
	case OpAlltoallv:
		e.SendBytes = make([]int64, len(c.sendcnts))
		for i, n := range c.sendcnts {
			e.SendBytes[i] = n * c.dtBytes
		}
	case OpBarrier:
	default: // remaining collectives
		e.Root = c.root
		e.Bytes = bytes
	}
	return e, true, nil
}
