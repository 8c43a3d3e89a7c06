//go:build unix

package main

import (
	"os"
	"runtime"
	"syscall"
)

func maxrssMB(ru *syscall.Rusage) float64 {
	if runtime.GOOS == "darwin" {
		return float64(ru.Maxrss) / 1e6 // bytes there, kilobytes elsewhere
	}
	return float64(ru.Maxrss) / 1e3
}

// peakRSSMB is the exited child's peak resident set (ru_maxrss) in MB.
func peakRSSMB(ps *os.ProcessState) float64 {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return maxrssMB(ru)
}

// ownPeakRSSMB is this process's own peak resident set in MB.
func ownPeakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return maxrssMB(&ru)
}
