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
