package trace

import "hpctradeoff/internal/simtime"

// Measured aggregates of a trace, so the campaign layer can
// characterize it (Table I, the accuracy baselines) through Source.

// SourceNumEvents returns the total number of events across all ranks.
func SourceNumEvents(src Source) int {
	n := 0
	for r := 0; r < src.TraceMeta().NumRanks; r++ {
		n += src.RankLen(r)
	}
	return n
}

// SourceMeasuredTotal returns the measured application time: the
// latest Exit across all ranks (ranks start at time zero).
func SourceMeasuredTotal(src Source) simtime.Time {
	var total simtime.Time
	var e Event
	for r := 0; r < src.TraceMeta().NumRanks; r++ {
		if n := src.RankLen(r); n > 0 {
			src.EventAt(r, n-1, &e)
			total = simtime.Max(total, e.Exit)
		}
	}
	return total
}

// SourceMeasuredComm returns the measured time spent inside
// communication calls (everything except compute), summed per rank and
// averaged over ranks — the "communication time" the paper's Table Ib
// buckets.
func SourceMeasuredComm(src Source) simtime.Time {
	n := src.TraceMeta().NumRanks
	if n == 0 {
		return 0
	}
	var sum simtime.Time
	var e Event
	for r := 0; r < n; r++ {
		for i := 0; i < src.RankLen(r); i++ {
			if src.OpAt(r, i) == OpCompute {
				continue
			}
			src.EventAt(r, i, &e)
			sum += e.Duration()
		}
	}
	return sum / simtime.Time(n)
}

// SourceCommFraction returns SourceMeasuredComm over
// SourceMeasuredTotal, in [0,1].
func SourceCommFraction(src Source) float64 {
	total := SourceMeasuredTotal(src)
	if total <= 0 {
		return 0
	}
	return float64(SourceMeasuredComm(src)) / float64(total)
}
