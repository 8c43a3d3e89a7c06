package trace

import (
	"fmt"
	"sort"
)

// Meta carries per-trace identity and capability metadata, the analog
// of a DUMPI trace's header plus the provenance the paper's study
// records for each of its 235 trace sets.
type Meta struct {
	// App is the application name, e.g. "CG", "LULESH", "CrystalRouter".
	App string
	// Class distinguishes problem sizes, e.g. NPB classes "A".."D" or a
	// mini-app mesh descriptor.
	Class string
	// Machine names the system the trace was collected on
	// ("cielito", "hopper", or "edison").
	Machine string
	// NumRanks is the number of MPI ranks in the trace.
	NumRanks int
	// RanksPerNode is the process placement density used at collection.
	RanksPerNode int
	// Seed is the RNG seed the generator used; it makes the trace
	// reproducible bit-for-bit.
	Seed int64
	// UsesCommSplit marks traces that create sub-communicators with
	// complex grouping operations (SST/Macro 3.0's packet and flow
	// backends cannot replay these).
	UsesCommSplit bool
	// UsesThreadMultiple marks traces collected from multi-threaded MPI
	// (likewise unsupported by the 3.0 backends).
	UsesThreadMultiple bool
}

// ID returns a stable identifier, e.g. "CG.B.x256.edison".
func (m Meta) ID() string {
	return fmt.Sprintf("%s.%s.x%d.%s", m.App, m.Class, m.NumRanks, m.Machine)
}

// CommTable maps communicator IDs to their sorted member world ranks.
// Index 0 is always MPI_COMM_WORLD.
type CommTable struct {
	members [][]int32
	// rankOf[comm][world] caches the member position of a world rank,
	// built lazily by Position.
	rankOf []map[int32]int
}

// NewCommTable returns a table containing only MPI_COMM_WORLD over
// worldSize ranks.
func NewCommTable(worldSize int) CommTable {
	world := make([]int32, worldSize)
	for i := range world {
		world[i] = int32(i)
	}
	return CommTable{members: [][]int32{world}}
}

// Add registers a new communicator with the given member world ranks
// (deduplicated and sorted) and returns its ID.
func (ct *CommTable) Add(members []int32) CommID {
	m := make([]int32, len(members))
	copy(m, members)
	sort.Slice(m, func(i, j int) bool { return m[i] < m[j] })
	// Deduplicate in place.
	out := m[:0]
	for i, v := range m {
		if i == 0 || v != m[i-1] {
			out = append(out, v)
		}
	}
	ct.members = append(ct.members, out)
	ct.rankOf = nil
	return CommID(len(ct.members) - 1)
}

// Len returns the number of communicators (including world).
func (ct *CommTable) Len() int { return len(ct.members) }

// Members returns the sorted member world ranks of comm. The returned
// slice must not be modified.
func (ct *CommTable) Members(comm CommID) []int32 {
	return ct.members[comm]
}

// Size returns the number of members of comm.
func (ct *CommTable) Size(comm CommID) int { return len(ct.members[comm]) }

// Contains reports whether world rank r is a member of comm.
func (ct *CommTable) Contains(comm CommID, r int32) bool {
	return ct.Position(comm, r) >= 0
}

// Position returns the member index of world rank r within comm, or -1
// if r is not a member.
func (ct *CommTable) Position(comm CommID, r int32) int {
	if ct.rankOf == nil {
		ct.rankOf = make([]map[int32]int, len(ct.members))
	}
	if int(comm) >= len(ct.rankOf) {
		// Table grew since cache was built.
		grown := make([]map[int32]int, len(ct.members))
		copy(grown, ct.rankOf)
		ct.rankOf = grown
	}
	m := ct.rankOf[comm]
	if m == nil {
		m = make(map[int32]int, len(ct.members[comm]))
		for i, w := range ct.members[comm] {
			m[w] = i
		}
		ct.rankOf[comm] = m
	}
	if pos, ok := m[r]; ok {
		return pos
	}
	return -1
}
