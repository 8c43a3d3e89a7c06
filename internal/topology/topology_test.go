package topology

import (
	"testing"
	"testing/quick"
)

func allTopologies(t *testing.T) map[string]Topology {
	t.Helper()
	torus, err := NewTorus3D(4, 3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := NewTorus3D(2, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	df, err := NewDragonfly(5, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := NewFatTree(6, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Topology{
		"torus":     torus,
		"tinyTorus": tiny,
		"dragonfly": df,
		"fattree":   ft,
	}
}

func TestValidateAll(t *testing.T) {
	for name, topo := range allTopologies(t) {
		t.Run(name, func(t *testing.T) {
			if err := Validate(topo); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTorusShape(t *testing.T) {
	torus, err := NewTorus3D(4, 3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := torus.Nodes(); got != 48 {
		t.Errorf("Nodes = %d, want 48", got)
	}
	x, y, z := torus.Dims()
	if x != 4 || y != 3 || z != 2 {
		t.Errorf("Dims = %d,%d,%d", x, y, z)
	}
	if got := torus.Diameter(); got != 2+1+1 {
		t.Errorf("Diameter = %d, want 4", got)
	}
	// Hop count of a route must never exceed the diameter.
	var buf []LinkID
	for s := 0; s < torus.Nodes(); s++ {
		for d := 0; d < torus.Nodes(); d++ {
			buf = torus.Route(buf[:0], s, d)
			if h := PathHops(buf, torus); h > torus.Diameter() {
				t.Fatalf("route %d->%d has %d hops > diameter %d", s, d, h, torus.Diameter())
			}
		}
	}
}

func TestTorusShortestDirection(t *testing.T) {
	// In an 8x1x1 torus with 1 node/router, going from 0 to 7 should
	// take 1 hop (wraparound), not 7.
	torus, err := NewTorus3D(8, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := torus.Route(nil, 0, 7)
	if h := PathHops(path, torus); h != 1 {
		t.Errorf("0->7 hops = %d, want 1 (wraparound)", h)
	}
	path = torus.Route(nil, 0, 3)
	if h := PathHops(path, torus); h != 3 {
		t.Errorf("0->3 hops = %d, want 3", h)
	}
	// Tie at distance 4: either way is minimal.
	path = torus.Route(nil, 0, 4)
	if h := PathHops(path, torus); h != 4 {
		t.Errorf("0->4 hops = %d, want 4", h)
	}
}

func TestFitTorus3D(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 108, 1000} {
		torus, err := FitTorus3D(n, 2)
		if err != nil {
			t.Fatalf("FitTorus3D(%d): %v", n, err)
		}
		if torus.Nodes() < n {
			t.Errorf("FitTorus3D(%d) holds only %d nodes", n, torus.Nodes())
		}
		if torus.Nodes() > 4*n+8 {
			t.Errorf("FitTorus3D(%d) wastes too much: %d nodes", n, torus.Nodes())
		}
	}
}

func TestDragonflyRouting(t *testing.T) {
	df, err := NewDragonfly(5, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := df.Nodes(); got != 40 {
		t.Errorf("Nodes = %d, want 40", got)
	}
	// Minimal routing: at most 3 router hops.
	var buf []LinkID
	for s := 0; s < df.Nodes(); s++ {
		for d := 0; d < df.Nodes(); d++ {
			buf = df.Route(buf[:0], s, d)
			if h := PathHops(buf, df); h > 3 {
				t.Fatalf("route %d->%d has %d hops, want ≤3", s, d, h)
			}
		}
	}
	// Same-router nodes: no router-router hops.
	path := df.Route(nil, 0, 1)
	if h := PathHops(path, df); h != 0 {
		t.Errorf("same-router route has %d hops, want 0", h)
	}
	// A cross-group route must contain exactly one global link.
	path = df.Route(nil, 0, df.Nodes()-1)
	globals := 0
	for _, id := range path {
		if df.Link(id).Kind == Global {
			globals++
		}
	}
	if globals != 1 {
		t.Errorf("cross-group route has %d global links, want 1", globals)
	}
}

func TestDragonflyValiant(t *testing.T) {
	df, err := NewDragonfly(5, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	df.SetValiant(true)
	if err := Validate(df); err != nil {
		t.Fatal(err)
	}
	// Valiant paths may use up to 2 global links.
	var buf []LinkID
	maxGlobals := 0
	for s := 0; s < df.Nodes(); s++ {
		for d := 0; d < df.Nodes(); d++ {
			buf = df.Route(buf[:0], s, d)
			globals := 0
			for _, id := range buf {
				if df.Link(id).Kind == Global {
					globals++
				}
			}
			if globals > 2 {
				t.Fatalf("valiant route %d->%d uses %d global links", s, d, globals)
			}
			if globals > maxGlobals {
				maxGlobals = globals
			}
		}
	}
	if maxGlobals != 2 {
		t.Errorf("no valiant route used an intermediate group (max globals = %d)", maxGlobals)
	}
}

func TestDragonflyRejectsUnderProvisionedGlobals(t *testing.T) {
	if _, err := NewDragonfly(10, 2, 1, 1); err == nil {
		t.Fatal("want error: 9 peers but only 2 global links per group")
	}
}

func TestFitDragonfly(t *testing.T) {
	for _, n := range []int{1, 24, 100, 1728} {
		df, err := FitDragonfly(n, 4)
		if err != nil {
			t.Fatalf("FitDragonfly(%d): %v", n, err)
		}
		if df.Nodes() < n {
			t.Errorf("FitDragonfly(%d) holds only %d", n, df.Nodes())
		}
		if err := ValidateSampled(df, 200); err != nil {
			t.Errorf("FitDragonfly(%d): %v", n, err)
		}
	}
}

func TestFatTreeRouting(t *testing.T) {
	ft, err := NewFatTree(6, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ft.Nodes() != 24 {
		t.Errorf("Nodes = %d, want 24", ft.Nodes())
	}
	// Same-leaf route: zero switch hops.
	path := ft.Route(nil, 0, 1)
	if h := PathHops(path, ft); h != 0 {
		t.Errorf("same-leaf hops = %d, want 0", h)
	}
	// Cross-leaf: exactly 2 switch-to-switch hops (up, down).
	path = ft.Route(nil, 0, 23)
	if h := PathHops(path, ft); h != 2 {
		t.Errorf("cross-leaf hops = %d, want 2", h)
	}
	// Distinct destinations on one leaf should spread over spines.
	spinesSeen := map[int32]bool{}
	for d := 4; d < 8; d++ {
		p := ft.Route(nil, 0, d)
		for _, id := range p {
			if ft.Link(id).Kind == Up {
				spinesSeen[ft.Link(id).To] = true
			}
		}
	}
	if len(spinesSeen) < 2 {
		t.Errorf("static spine selection does not spread: %d spines", len(spinesSeen))
	}
}

func TestFitFatTree(t *testing.T) {
	ft, err := FitFatTree(100, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ft.Nodes() < 100 {
		t.Errorf("FitFatTree(100) holds %d", ft.Nodes())
	}
}

// Property: routes are symmetric in hop count for the torus (dimension
// order with shortest direction gives equal-length forward and reverse
// paths).
func TestTorusHopSymmetryProperty(t *testing.T) {
	torus, err := NewTorus3D(5, 4, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := torus.Nodes()
	prop := func(a, b uint16) bool {
		s, d := int(a)%n, int(b)%n
		fwd := PathHops(torus.Route(nil, s, d), torus)
		rev := PathHops(torus.Route(nil, d, s), torus)
		return fwd == rev
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkKindString(t *testing.T) {
	for k := Injection; k <= Down; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
	if LinkKind(200).String() != "kind(200)" {
		t.Error("unknown kind formatting wrong")
	}
}

func TestBadShapes(t *testing.T) {
	if _, err := NewTorus3D(0, 1, 1, 1); err == nil {
		t.Error("torus with zero dim accepted")
	}
	if _, err := NewDragonfly(1, 0, 1, 1); err == nil {
		t.Error("dragonfly with zero routers accepted")
	}
	if _, err := NewFatTree(0, 1, 1); err == nil {
		t.Error("fat tree with zero leaves accepted")
	}
	if _, err := FitTorus3D(0, 1); err == nil {
		t.Error("FitTorus3D(0) accepted")
	}
	if _, err := FitDragonfly(0, 1); err == nil {
		t.Error("FitDragonfly(0) accepted")
	}
	if _, err := FitFatTree(0, 1); err == nil {
		t.Error("FitFatTree(0) accepted")
	}
}

// PathHops returns the number of router-to-router hops in a path
// produced by Route (i.e. excluding injection and ejection links).
func PathHops(path []LinkID, t Topology) int {
	hops := 0
	for _, id := range path {
		switch t.Link(id).Kind {
		case Injection, Ejection:
		default:
			hops++
		}
	}
	return hops
}

// ValidateSampled checks the same invariants as Validate on a
// deterministic sample of at most samples (src,dst) pairs, for
// topologies too large for the O(nodes²) full walk.
func ValidateSampled(t Topology, samples int) error {
	n := t.Nodes()
	if n*n <= samples {
		return Validate(t)
	}
	var buf []LinkID
	// Deterministic stride-based sample covering diverse pairs.
	state := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < samples; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		s := int(state>>33) % n
		state = state*6364136223846793005 + 1442695040888963407
		d := int(state>>33) % n
		buf = t.Route(buf[:0], s, d)
		if err := checkPath(t, buf, s, d); err != nil {
			return err
		}
	}
	return nil
}
