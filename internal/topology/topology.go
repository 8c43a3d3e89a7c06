// Package topology models interconnection network shapes — 3-D torus
// (Cray Gemini), dragonfly (Cray Aries), and fat tree — together with
// their deterministic routing functions.
//
// A Topology exposes compute nodes (endpoints), directed links, and a
// Route function that returns the ordered link path a message follows
// from one node to another. Simulators attach queues or fluid state to
// the link IDs; the modeling tool only needs hop counts.
package topology

import "fmt"

// LinkID indexes a directed link within a topology.
type LinkID int32

// LinkKind classifies a link's role, mainly for reporting and for
// ablation studies that scale one class of link.
type LinkKind uint8

// Link role vocabulary.
const (
	// Injection connects a compute node into its router.
	Injection LinkKind = iota
	// Ejection connects a router out to a compute node.
	Ejection
	// TorusDim is a torus neighbor link (any dimension).
	TorusDim
	// Local is an intra-group dragonfly link.
	Local
	// Global is an inter-group dragonfly link.
	Global
	// Up is a fat-tree child-to-parent link.
	Up
	// Down is a fat-tree parent-to-child link.
	Down
)

var linkKindNames = [...]string{
	Injection: "injection",
	Ejection:  "ejection",
	TorusDim:  "torus",
	Local:     "local",
	Global:    "global",
	Up:        "up",
	Down:      "down",
}

// String returns the link kind's lowercase name.
func (k LinkKind) String() string {
	if int(k) < len(linkKindNames) {
		return linkKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Link describes one directed link between two elements (routers or
// node endpoints; the endpoint namespace is private to each topology).
type Link struct {
	Kind LinkKind
	// From and To identify the link's endpoints in a topology-private
	// namespace; they are exposed for debugging and visualization only.
	From, To int32
}

// Topology is a network shape with deterministic routing.
//
// Implementations must be safe for concurrent Route calls.
type Topology interface {
	// Name identifies the topology instance, e.g. "torus3d(8x8x4)".
	Name() string
	// Nodes returns the number of compute-node endpoints.
	Nodes() int
	// NumLinks returns the number of directed links; LinkIDs are
	// 0..NumLinks-1.
	NumLinks() int
	// Link returns the descriptor of a link.
	Link(id LinkID) Link
	// Route appends the ordered link path from node src to node dst
	// (including the injection and ejection links) to buf and returns
	// the extended slice. src == dst yields an empty path (loopback
	// messages do not enter the network).
	Route(buf []LinkID, src, dst int) []LinkID
	// Diameter returns the maximum hop count (router-to-router links on
	// the longest minimal route, excluding injection/ejection).
	Diameter() int
}

// Validate walks every pair-free structural invariant common to all
// topologies: every node can route to every other node, paths begin
// with an injection link and end with an ejection link, and every link
// ID on a path is in range. It is O(nodes²) and intended for tests.
func Validate(t Topology) error {
	n := t.Nodes()
	var buf []LinkID
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			buf = t.Route(buf[:0], s, d)
			if err := checkPath(t, buf, s, d); err != nil {
				return err
			}
		}
	}
	return nil
}

func checkPath(t Topology, path []LinkID, s, d int) error {
	if s == d {
		if len(path) != 0 {
			return fmt.Errorf("%s: route %d->%d: self route must be empty", t.Name(), s, d)
		}
		return nil
	}
	if len(path) < 2 {
		return fmt.Errorf("%s: route %d->%d: too short (%d links)", t.Name(), s, d, len(path))
	}
	for _, id := range path {
		if id < 0 || int(id) >= t.NumLinks() {
			return fmt.Errorf("%s: route %d->%d: link %d out of range", t.Name(), s, d, id)
		}
	}
	if t.Link(path[0]).Kind != Injection {
		return fmt.Errorf("%s: route %d->%d: first link is %v, not injection", t.Name(), s, d, t.Link(path[0]).Kind)
	}
	if t.Link(path[len(path)-1]).Kind != Ejection {
		return fmt.Errorf("%s: route %d->%d: last link is %v, not ejection", t.Name(), s, d, t.Link(path[len(path)-1]).Kind)
	}
	for i := 1; i < len(path)-1; i++ {
		k := t.Link(path[i]).Kind
		if k == Injection || k == Ejection {
			return fmt.Errorf("%s: route %d->%d: interior link %d has kind %v", t.Name(), s, d, i, k)
		}
	}
	// Link continuity: each link must start where the previous ended.
	for i := 1; i < len(path); i++ {
		prev, cur := t.Link(path[i-1]), t.Link(path[i])
		if prev.To != cur.From {
			return fmt.Errorf("%s: route %d->%d: discontinuity at hop %d (%d != %d)",
				t.Name(), s, d, i, prev.To, cur.From)
		}
	}
	return nil
}
