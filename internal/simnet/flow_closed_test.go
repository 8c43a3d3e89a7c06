package simnet

import (
	"math"
	"math/rand"
	"testing"
)

// subLoop is the plain loop subRepeated replaces.
func subLoop(x, delta float64, k int32) float64 {
	for ; k > 0; k-- {
		x -= delta
	}
	return x
}

// ulpOf returns the ulp of x's binade (x positive and normal).
func ulpOf(x float64) float64 {
	b := math.Float64frombits(math.Float64bits(x) &^ (1<<52 - 1))
	return b * 0x1p-52
}

// TestSubRepeatedMatchesLoop holds the closed form to the loop bit for
// bit on two million (x, delta, k): random magnitudes and bit patterns,
// and the adversarial cases the closed form must step through one at
// a time — deltas that tie in x's binade or the next one down, runs
// that cross many binades into zero and below, binade boundaries,
// subnormals and non-finite values.
func TestSubRepeatedMatchesLoop(t *testing.T) {
	n := 2_000_000
	if testing.Short() {
		n = 200_000
	}
	rng := rand.New(rand.NewSource(1))
	mag := func() float64 { return math.Ldexp(1+rng.Float64(), rng.Intn(80)-20) }
	special := []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1000, math.MaxFloat64}
	fails := 0
	for c := 0; c < n && fails < 10; c++ {
		k := int32(17 + rng.Intn(48))
		if rng.Intn(16) == 0 {
			k = int32(rng.Intn(3000))
		}
		x := mag()
		var delta float64
		switch rng.Intn(10) {
		case 0: // an odd multiple of half an ulp of x's binade: every step ties
			delta = float64(2*rng.Int63n(1<<20)+1) * ulpOf(x) / 2
		case 1: // a tie one binade down, where the run lands next
			delta = float64(2*rng.Int63n(1<<20)+1) * ulpOf(x) / 4
		case 2: // the run drains x to about zero, crossing every binade
			delta = x / float64(k) * (1 + (rng.Float64()-0.5)*1e-12)
		case 3: // ... or exactly its share, as progressive filling asks
			delta = x / float64(k)
		case 4: // x at a binade boundary
			x = math.Ldexp(1, rng.Intn(80)-20)
			delta = x / float64(1+rng.Intn(int(k)+8))
		case 5: // deltas far below the ulp, or around half of it
			delta = ulpOf(x) * []float64{1e-3, 0.25, 0.5, 0.5000001, 0.4999999, 1, 1.5, 3}[rng.Intn(8)]
		case 6: // random bit patterns, sign and all
			x = math.Float64frombits(rng.Uint64())
			delta = math.Float64frombits(rng.Uint64())
		case 7: // special values on either side
			if rng.Intn(2) == 0 {
				x = special[rng.Intn(len(special))]
				delta = mag() * math.Ldexp(1, -rng.Intn(40))
			} else {
				delta = special[rng.Intn(len(special))]
			}
		case 8: // subnormal and near-subnormal magnitudes
			x = math.Ldexp(1+rng.Float64(), -1000-rng.Intn(74))
			delta = x / float64(1+rng.Intn(int(k)+8))
		default:
			delta = mag() * math.Ldexp(1, -rng.Intn(60))
		}
		got, want := subRepeated(x, delta, k), subLoop(x, delta, k)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("x=%x delta=%x k=%d: closed form %x, loop %x", x, delta, k, got, want)
			fails++
		}
	}
}
