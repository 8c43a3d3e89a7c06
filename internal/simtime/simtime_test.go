package simtime

import (
	"math"
	"testing"
	"testing/quick"
)

func TestUnitRelations(t *testing.T) {
	if Nanosecond != 1000*Picosecond || Second != 1e12*Picosecond {
		t.Fatal("unit constants inconsistent")
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	prop := func(ms uint16) bool {
		s := float64(ms) / 1000.0
		return math.Abs(FromSeconds(s).Seconds()-s) < 1e-12
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromSecondsSaturates(t *testing.T) {
	cases := []struct {
		in   float64
		want Time
	}{
		{1e300, Forever},
		{-1e300, -Forever},
		{math.Inf(1), Forever},
		{math.Inf(-1), -Forever},
		{math.NaN(), Forever},
		{Forever.Seconds() * 2, Forever},
		{-Forever.Seconds() * 2, -Forever},
		{1.5, 1500 * Millisecond},
		{-1.5, -1500 * Millisecond},
	}
	for _, c := range cases {
		if got := FromSeconds(c.in); got != c.want {
			t.Errorf("FromSeconds(%g) = %d, want %d", c.in, int64(got), int64(c.want))
		}
	}
}

// Property: FromSeconds is monotone over the whole float range,
// saturated ends included.
func TestFromSecondsMonotone(t *testing.T) {
	// quick draws floats spread over ±MaxFloat64; rescale them to
	// magnitudes 2⁻⁴⁰ … 2⁴⁰ s, which straddle both a picosecond and
	// Forever (≈ 2²¹ s).
	at := func(f float64, e int8) float64 { return math.Ldexp(f/math.MaxFloat64, int(e)%41) }
	prop := func(a, b float64, ea, eb int8) bool {
		x, y := at(a, ea), at(b, eb)
		if x > y {
			x, y = y, x
		}
		return FromSeconds(x) <= FromSeconds(y)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromNanoseconds(t *testing.T) {
	if got := FromNanoseconds(2500); got != 2500*Nanosecond {
		t.Errorf("FromNanoseconds(2500) = %v", got)
	}
	if got := FromNanoseconds(0.5); got != 500*Picosecond {
		t.Errorf("FromNanoseconds(0.5) = %v, want 500ps", got)
	}
}

func TestScale(t *testing.T) {
	if got := (10 * Microsecond).Scale(0.5); got != 5*Microsecond {
		t.Errorf("Scale(0.5) = %v", got)
	}
	if got := Time(3).Scale(1.0 / 3.0); got != 1 {
		t.Errorf("Scale rounding = %v, want 1", got)
	}
	if got := Time(0).Scale(1e9); got != 0 {
		t.Errorf("Scale of zero = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	if Max(1, 2) != 2 || Max(2, 1) != 2 || Min(1, 2) != 1 || Min(2, 1) != 1 {
		t.Fatal("Min/Max wrong")
	}
}

func TestTransferTime(t *testing.T) {
	// 1 GiB/s moving 1 GiB takes 1 s.
	const gib = 1 << 30
	if got := TransferTime(gib, gib); got != Second {
		t.Errorf("TransferTime = %v, want 1s", got)
	}
	if got := TransferTime(100, 0); got != Forever {
		t.Errorf("zero bandwidth = %v, want Forever", got)
	}
	if got := TransferTime(0, gib); got != 0 {
		t.Errorf("zero bytes = %v, want 0", got)
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0s"},
		{500, "500ps"},
		{2500 * Nanosecond, "2.5µs"},
		{-Second, "-1s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

// Property: TransferTime is monotone in bytes for fixed bandwidth.
func TestTransferTimeMonotone(t *testing.T) {
	prop := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return TransferTime(x, 1e9) <= TransferTime(y, 1e9)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
