// Package features extracts the 35 candidate features of the paper's
// Table III from a trace and its MFACT modeling result. They feed the
// enhanced-MFACT statistical model that predicts whether detailed
// simulation of an application is worthwhile.
package features

import (
	"hpctradeoff/internal/mfact"
	"hpctradeoff/internal/trace"
)

// Feature names, in Table III order. "CLncs" encodes the CL
// classification with levels {cs, ncs} as an indicator that the
// application is *not* communication-sensitive.
var names = []string{
	// Application
	"R", "RN", "N",
	// Execution
	"T", "Tcp", "PoCP", "Tc", "PoC",
	// Collective
	"Tbr", "PoBR", "Tfbr", "PoFBR", "Tcoll", "PoCOLL", "Tfcoll", "PoFCOLL",
	// Point-to-point
	"Tp2p", "PoTp2p", "Tsyn", "PoSYN", "Tasyn", "PoASYN",
	// Message
	"TB", "NoM", "TBp2p", "CR", "CRComm",
	// MPI
	"NoCALL", "NoS", "NoIS", "NoR", "NoIR", "NoB", "NoC",
	// Classification
	"CLncs",
}

// Names returns the 35 feature names in Table III order.
func Names() []string { return append([]string(nil), names...) }

// Index returns the position of a feature name, or -1.
func Index(name string) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	return -1
}

// ExtractSource computes the feature vector for a measured trace and
// its MFACT result (nil omits the MFACT classification). Time-valued
// features are in seconds; counts are raw.
func ExtractSource(src trace.Source, model *mfact.Result) []float64 {
	meta := src.TraceMeta()
	comms := src.TraceComms()
	n := meta.NumRanks
	ranks := float64(max(n, 1))

	var (
		tcp, tc, tbr, tfbr, tcoll, tfcoll   float64 // summed seconds
		tp2p, tsyn, tasyn                   float64
		totalBytes, p2pBytes                int64
		noM, noCall                         int
		noS, noIS, noR, noIR, noB, noC      int
		firstBarrierSeen, firstAllToAllSeen bool
	)
	destsPerSrc := make([]map[int32]bool, n)
	for r := range destsPerSrc {
		destsPerSrc[r] = make(map[int32]bool)
	}

	var e trace.Event
	for r := 0; r < n; r++ {
		m := src.RankLen(r)
		for i := 0; i < m; i++ {
			src.EventAt(r, i, &e)
			dur := e.Duration().Seconds()
			if e.Op == trace.OpCompute {
				tcp += dur
				continue
			}
			noCall++
			tc += dur
			nMembers := 0
			if e.Op.IsCollective() {
				nMembers = comms.Size(e.Comm)
			}
			totalBytes += e.TotalSendBytes(nMembers)
			switch e.Op {
			case trace.OpSend:
				noS++
				noM++
				tsyn += dur
				tp2p += dur
				p2pBytes += e.Bytes
				destsPerSrc[r][e.Peer] = true
			case trace.OpIsend:
				noIS++
				noM++
				tasyn += dur
				tp2p += dur
				p2pBytes += e.Bytes
				destsPerSrc[r][e.Peer] = true
			case trace.OpRecv:
				noR++
				tsyn += dur
				tp2p += dur
			case trace.OpIrecv:
				noIR++
				tasyn += dur
				tp2p += dur
			case trace.OpWait, trace.OpWaitall:
				tasyn += dur
				tp2p += dur
			case trace.OpBarrier:
				noB++
				noC++
				tbr += dur
				tcoll += dur
				if !firstBarrierSeen && r == 0 {
					tfbr = dur
					firstBarrierSeen = true
				}
			default: // remaining collectives
				noC++
				tcoll += dur
				if (e.Op == trace.OpAlltoall || e.Op == trace.OpAlltoallv) &&
					!firstAllToAllSeen && r == 0 {
					tfcoll = dur
					firstAllToAllSeen = true
				}
			}
		}
	}

	total := trace.SourceMeasuredTotal(src).Seconds()
	// Per-rank averages for time features.
	tcp /= ranks
	tc /= ranks
	tbr /= ranks
	tcoll /= ranks
	tp2p /= ranks
	tsyn /= ranks
	tasyn /= ranks

	frac := func(x float64) float64 {
		if total <= 0 {
			return 0
		}
		return x / total
	}

	var totalDests int
	for _, d := range destsPerSrc {
		totalDests += len(d)
	}
	cr := float64(totalDests) / ranks
	crComm := 0.0
	if totalDests > 0 {
		crComm = float64(p2pBytes) / float64(totalDests)
	}

	rpn := meta.RanksPerNode
	if rpn <= 0 {
		rpn = 1
	}
	nodes := (n + rpn - 1) / rpn

	clNcs := 1.0
	if model != nil && model.CommSensitive() {
		clNcs = 0
	}

	return []float64{
		float64(n), float64(rpn), float64(nodes),
		total, tcp, frac(tcp), tc, frac(tc),
		tbr, frac(tbr), tfbr, frac(tfbr), tcoll, frac(tcoll), tfcoll, frac(tfcoll),
		tp2p, frac(tp2p), tsyn, frac(tsyn), tasyn, frac(tasyn),
		float64(totalBytes), float64(noM), float64(p2pBytes), cr, crComm,
		float64(noCall), float64(noS), float64(noIS), float64(noR), float64(noIR),
		float64(noB), float64(noC),
		clNcs,
	}
}
