package main

import (
	"fmt"
	"sort"
	"time"

	"hpctradeoff/internal/stats"
)

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for none.
func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// what the driver computes spreads with. It needs two samples; fewer
// return the sample itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// The host-calibration loop: a fixed number of dependent random reads
// over a table several times the size of a core's L2, because what
// slows a campaign on a shared host is contention below the L2, which
// an arithmetic loop does not feel. The table is kept to 8 MiB so that
// the harness stays smaller than any child it measures: Linux folds the
// parent's peak RSS into a child's ru_maxrss at exec.
const (
	spinIters = 3_000_000
	spinWords = 1 << 20
)

var spinTable []uint64

// spin times the calibration loop, in milliseconds. Its work never
// changes, so a change in its time is the host, not the program: a run
// whose spins disagree by more than 10 % is labelled noisy_host.
func spin() float64 {
	if spinTable == nil {
		spinTable = make([]uint64, spinWords)
		for i := range spinTable {
			spinTable[i] = uint64(i) * 0x9e3779b97f4a7c15
		}
	}
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < spinIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		x += spinTable[x%spinWords]
	}
	spinTable[0] = x
	return float64(time.Since(start)) / 1e6
}

// spinPair holds the calibration spins taken before a workload's
// set-up and as many taken after its last run.
type spinPair struct{ before, after []float64 }

// closeSpins takes the after-workload spins.
func closeSpins(before []float64) spinPair {
	s := spinPair{before: before}
	for range before {
		s.after = append(s.after, spin())
	}
	return s
}

// noisy reports whether the host changed under the workload: the two
// medians differ by more than 10 %. (Single spins jitter by several
// per cent on a shared host; their medians do not.)
func (s spinPair) noisy() bool {
	b, a := median(s.before), median(s.after)
	return a > 1.1*b || b > 1.1*a
}

// median is the middle of all the spins around the workload.
func (s spinPair) median() float64 {
	return median(append(append([]float64(nil), s.before...), s.after...))
}

func (s spinPair) String() string {
	return fmt.Sprintf("before %.1f ms, after %.1f ms", median(s.before), median(s.after))
}
