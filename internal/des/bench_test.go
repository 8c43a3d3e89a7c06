package des

import (
	"testing"

	"hpctradeoff/internal/simtime"
)

// BenchmarkSequentialEngine measures raw event throughput of the
// event-heap engine (schedule + dispatch of a self-perpetuating chain).
func BenchmarkSequentialEngine(b *testing.B) {
	var e Engine
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.After(simtime.Nanosecond, step)
		}
	}
	b.ResetTimer()
	e.After(0, step)
	e.Run()
}

// BenchmarkSequentialEngineFanout measures heap behaviour under wide
// fan-out (many events resident at once).
func BenchmarkSequentialEngineFanout(b *testing.B) {
	var e Engine
	for i := 0; i < b.N; i++ {
		e.At(simtime.Time(i%1024), func() {})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkHold256 is the hold model at the depth campaign replays
// actually run at: 256 events stay pending and every executed event
// schedules its successor a pseudo-random delay ahead. The chain above
// has no queue to speak of and the fanout's wide drain is
// cache-miss-bound, so neither prices the heap where the simulators
// use it.
func BenchmarkHold256(b *testing.B) {
	var e Engine
	n := 0
	r := uint64(1)
	var step func()
	step = func() {
		if n++; n <= b.N {
			r = r*6364136223846793005 + 1442695040888963407 // deterministic LCG
			e.After(simtime.Time(r>>40), step)
		}
	}
	for i := 0; i < 256; i++ {
		e.At(simtime.Time(i), step)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
