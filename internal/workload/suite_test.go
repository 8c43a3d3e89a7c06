package workload

import (
	"reflect"
	"testing"
)

// TestSuiteSmallEdgeCases pins the degenerate corners of the reduced
// study manifests that Filter(Suite(), …) gives: non-positive strides
// clamp to 1, a cap below the smallest trace yields an empty (not
// nil-panicking) manifest, and a stride larger than the suite keeps
// exactly the first entry.
func TestSuiteSmallEdgeCases(t *testing.T) {
	full := Suite()

	for _, stride := range []int{0, -1, -100} {
		got := Filter(full, stride, 0)
		if !reflect.DeepEqual(got, full) {
			t.Errorf("Filter(Suite(), %d, 0) = %d traces, want the full %d-trace suite", stride, len(got), len(full))
		}
	}

	if got := Filter(full, 1, 1); len(got) != 0 {
		t.Errorf("Filter(Suite(), 1, 1) kept %d traces; maxRanks=1 should exclude every trace", len(got))
	}

	if got := Filter(full, len(full)+1, 0); len(got) != 1 || !reflect.DeepEqual(got[0], full[0]) {
		t.Errorf("Filter(Suite(), %d, 0) = %v, want exactly the first suite entry", len(full)+1, got)
	}

	// Stride and cap compose: stride selects by original index first,
	// then the cap filters, so the result is a subset of the strided set.
	strided := Filter(full, 7, 0)
	capped := Filter(full, 7, 256)
	j := 0
	for _, p := range strided {
		if p.Ranks <= 256 {
			if j >= len(capped) || !reflect.DeepEqual(capped[j], p) {
				t.Fatalf("Filter(Suite(), 7, 256) is not the ≤256-rank subsequence of Filter(Suite(), 7, 0)")
			}
			j++
		}
	}
	if j != len(capped) {
		t.Fatalf("Filter(Suite(), 7, 256) has %d extra traces beyond the strided subsequence", len(capped)-j)
	}
}

// TestFilterDefinition holds Filter to its definition, stride by
// manifest index then a rank cap, over an arbitrary manifest.
func TestFilterDefinition(t *testing.T) {
	ps := Suite()[:20]
	for _, tc := range []struct{ stride, maxRanks int }{
		{1, 0}, {2, 0}, {3, 128}, {0, 64}, {25, 0},
	} {
		got := Filter(ps, tc.stride, tc.maxRanks)
		stride := max(tc.stride, 1)
		var want []Params
		for i, p := range ps {
			if i%stride == 0 && (tc.maxRanks <= 0 || p.Ranks <= tc.maxRanks) {
				want = append(want, p)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Filter(ps, %d, %d) = %d traces, want %d", tc.stride, tc.maxRanks, len(got), len(want))
		}
	}
}

// TestSuitePolicyHelpers pins the exported policy functions to the
// manifest behavior Suite has always had; specs/paper-235.yaml leans
// on these being exactly the historical formulas.
func TestSuitePolicyHelpers(t *testing.T) {
	if m := SuiteMachine(0, 64); m != "cielito" {
		t.Errorf("SuiteMachine(0, 64) = %q, want cielito", m)
	}
	if m := SuiteMachine(0, 1728); m != "hopper" {
		t.Errorf("SuiteMachine(0, 1728) = %q, want hopper (cielito caps at 1024 cores)", m)
	}
	if m := SuiteMachine(3, 1728); m != "hopper" {
		t.Errorf("SuiteMachine(3, 1728) = %q, want hopper", m)
	}
	if m := SuiteMachine(2, 1728); m != "edison" {
		t.Errorf("SuiteMachine(2, 1728) = %q, want edison (rotation unaffected below the cap)", m)
	}
	for _, tc := range []struct{ ranks, want int }{
		{64, 0}, {511, 0}, {512, 4}, {1023, 4}, {1024, 3}, {1728, 3},
	} {
		if got := SuiteIters(tc.ranks); got != tc.want {
			t.Errorf("SuiteIters(%d) = %d, want %d", tc.ranks, got, tc.want)
		}
	}
	// The seed must depend on every coordinate, including the index.
	base := SuiteSeed("CG", "B", 64, "cielito", 0)
	for name, other := range map[string]int64{
		"app":     SuiteSeed("MG", "B", 64, "cielito", 0),
		"class":   SuiteSeed("CG", "A", 64, "cielito", 0),
		"ranks":   SuiteSeed("CG", "B", 128, "cielito", 0),
		"machine": SuiteSeed("CG", "B", 64, "hopper", 0),
		"index":   SuiteSeed("CG", "B", 64, "cielito", 1),
	} {
		if other == base {
			t.Errorf("SuiteSeed ignores the %s coordinate", name)
		}
	}
}
