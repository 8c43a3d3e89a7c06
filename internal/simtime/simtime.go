// Package simtime provides the discrete time base shared by every
// simulator and model in this repository.
//
// Time is measured in integer picoseconds. An integer base makes
// discrete-event simulation deterministic (no float rounding drift when
// events are reordered) while picosecond resolution keeps quantization
// error negligible for the nanosecond-scale network latencies and
// multi-gigabit bandwidths the machine models use.
package simtime

import (
	"fmt"
	"math"
)

// Time is an absolute simulation time or a duration, in picoseconds.
// The zero value is the simulation epoch.
type Time int64

// Common duration units expressed in Time ticks.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Forever is a sentinel meaning "later than any event". It is far from
// overflow when added to realistic simulation times.
const Forever Time = math.MaxInt64 / 4

// FromSeconds converts a floating-point duration in seconds to Time,
// rounding to the nearest picosecond. It saturates: a result beyond
// ±Forever is ±Forever, and NaN is Forever. (A bare out-of-range float
// to int64 conversion is implementation-defined; amd64 gives MinInt64,
// so a huge positive duration would come out negative.) The conversion
// is therefore monotone over every input, which the flow model's
// per-route earliest completion relies on.
func FromSeconds(s float64) Time {
	switch ps := math.Round(s * float64(Second)); {
	case !(ps < float64(Forever)): // also NaN
		return Forever
	case ps <= -float64(Forever):
		return -Forever
	default:
		return Time(ps)
	}
}

// FromNanoseconds converts a floating-point duration in nanoseconds to
// Time, rounding to the nearest picosecond.
func FromNanoseconds(ns float64) Time {
	return Time(math.Round(ns * float64(Nanosecond)))
}

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Nanoseconds reports t as a floating-point number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Scale multiplies t by the dimensionless factor f, rounding to the
// nearest tick. It is used to speed up or slow down recorded computation
// intervals and model parameters.
func (t Time) Scale(f float64) Time {
	return Time(math.Round(float64(t) * f))
}

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Min returns the earlier of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// String formats t with an auto-selected unit, e.g. "1.234ms".
func (t Time) String() string {
	switch abs := t; {
	case abs < 0:
		return "-" + (-t).String()
	case t == 0:
		return "0s"
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.3gns", float64(t)/float64(Nanosecond))
	case t < Millisecond:
		return fmt.Sprintf("%.4gµs", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.4gms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6gs", float64(t)/float64(Second))
	}
}

// TransferTime returns the Hockney-model serialization time for moving
// bytes at bandwidth bytesPerSec (latency excluded). A zero or negative
// bandwidth yields Forever, representing an unusable channel.
func TransferTime(bytes int64, bytesPerSec float64) Time {
	if bytesPerSec <= 0 {
		return Forever
	}
	return FromSeconds(float64(bytes) / bytesPerSec)
}
