//go:build !unix

package main

import "os"

// Peak resident sets are unavailable without rusage.
func peakRSSMB(*os.ProcessState) float64 { return 0 }
func ownPeakRSSMB() float64              { return 0 }
