package workload

import (
	"slices"

	"hpctradeoff/internal/trace"
)

// Process-grid helpers shared by the stencil-style generators.

// factor2 splits n into the most square a×b with a·b = n, a ≤ b.
func factor2(n int) (int, int) {
	best := 1
	for a := 1; a*a <= n; a++ {
		if n%a == 0 {
			best = a
		}
	}
	return best, n / best
}

// factor3 splits n into the most cubic a×b×c with a·b·c = n.
func factor3(n int) (int, int, int) {
	bestA, bestB, bestC := 1, 1, n
	bestScore := n * n
	for a := 1; a*a*a <= n; a++ {
		if n%a != 0 {
			continue
		}
		b, c := factor2(n / a)
		if score := (c - a) * (c - a); score < bestScore {
			bestScore = score
			bestA, bestB, bestC = a, b, c
		}
	}
	return bestA, bestB, bestC
}

// grid3 is a 3-D process decomposition over ranks 0..n-1.
type grid3 struct {
	nx, ny, nz int
	// face and all hold every rank's face and face/edge/corner
	// neighbors, each computed on first use: generators exchange halos
	// every iteration, with the same neighbors each time.
	face, all [][]int
}

func newGrid3(n int) *grid3 {
	a, b, c := factor3(n)
	return &grid3{nx: a, ny: b, nz: c}
}

func (g *grid3) coords(r int) (x, y, z int) {
	x = r % g.nx
	y = (r / g.nx) % g.ny
	z = r / (g.nx * g.ny)
	return
}

func (g *grid3) rank(x, y, z int) int {
	return (z*g.ny+y)*g.nx + x
}

// neighbor returns the rank offset by (dx,dy,dz) with periodic
// wrap-around, or -1 if it would be the rank itself.
func (g *grid3) neighbor(r, dx, dy, dz int) int {
	x, y, z := g.coords(r)
	nx := (x + dx + g.nx) % g.nx
	ny := (y + dy + g.ny) % g.ny
	nz := (z + dz + g.nz) % g.nz
	nr := g.rank(nx, ny, nz)
	if nr == r {
		return -1
	}
	return nr
}

// faceDirs are the 6 face offsets, and allDirs the 26 face, edge and
// corner offsets, in the order neighbor lists are built in.
var faceDirs = [][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}}

var allDirs = func() [][3]int {
	var out [][3]int
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				if dx != 0 || dy != 0 || dz != 0 {
					out = append(out, [3]int{dx, dy, dz})
				}
			}
		}
	}
	return out
}()

// faceNeighbors returns the up-to-6 distinct face neighbors of r. The
// slice is shared and read-only.
func (g *grid3) faceNeighbors(r int) []int {
	if g.face == nil {
		g.face = g.neighborTable(faceDirs)
	}
	return g.face[r]
}

// allNeighbors returns the up-to-26 distinct face/edge/corner
// neighbors of r (the LULESH ghost-exchange stencil). The slice is
// shared and read-only.
func (g *grid3) allNeighbors(r int) []int {
	if g.all == nil {
		g.all = g.neighborTable(allDirs)
	}
	return g.all[r]
}

// neighborTable lists, for every rank, its distinct neighbors at the
// given offsets in first-seen order.
func (g *grid3) neighborTable(dirs [][3]int) [][]int {
	n := g.nx * g.ny * g.nz
	flat := make([]int, 0, n*len(dirs))
	table := make([][]int, n)
	for r := range table {
		start := len(flat)
		for _, d := range dirs {
			if nr := g.neighbor(r, d[0], d[1], d[2]); nr >= 0 && !slices.Contains(flat[start:], nr) {
				flat = append(flat, nr)
			}
		}
		table[r] = flat[start:len(flat):len(flat)]
	}
	return table
}

// haloExchange emits a nonblocking halo exchange: every rank posts
// irecvs and isends to each neighbor, then waits on all. sizeOf gives
// the payload toward each neighbor (both directions use the sender's
// size; for symmetric stencils sizes match).
func (g *gen) haloExchange(neighbors func(r int) []int, tag int32, sizeOf func(r, nbr int) int64) {
	type pend struct{ reqs []int32 }
	pends := make([]pend, g.n)
	for r := 0; r < g.n; r++ {
		for _, nbr := range neighbors(r) {
			// The message nbr→r carries nbr's size toward r.
			req := g.b.Irecv(r, int32(nbr), tag, sizeOf(nbr, r), trace.CommWorld)
			pends[r].reqs = append(pends[r].reqs, req)
		}
	}
	for r := 0; r < g.n; r++ {
		for _, nbr := range neighbors(r) {
			req := g.b.Isend(r, int32(nbr), tag, sizeOf(r, nbr), trace.CommWorld)
			pends[r].reqs = append(pends[r].reqs, req)
		}
	}
	for r := 0; r < g.n; r++ {
		g.b.Waitall(r, pends[r].reqs...)
	}
}

// grid2 is a 2-D process decomposition.
type grid2 struct {
	nx, ny int
}

func newGrid2(n int) grid2 {
	a, b := factor2(n)
	return grid2{a, b}
}

func (g grid2) coords(r int) (x, y int) { return r % g.nx, r / g.nx }
func (g grid2) rank(x, y int) int       { return y*g.nx + x }

// neighbor returns the non-periodic neighbor or -1 at the boundary.
func (g grid2) neighbor(r, dx, dy int) int {
	x, y := g.coords(r)
	nx, ny := x+dx, y+dy
	if nx < 0 || nx >= g.nx || ny < 0 || ny >= g.ny {
		return -1
	}
	nr := g.rank(nx, ny)
	if nr == r {
		return -1
	}
	return nr
}

// rowComms and colComms split the world into per-row / per-column
// sub-communicators (the BigFFT pencil decomposition).
func (g *gen) rowComms(gr grid2) []trace.CommID {
	out := make([]trace.CommID, gr.ny)
	for y := 0; y < gr.ny; y++ {
		members := make([]int32, gr.nx)
		for x := 0; x < gr.nx; x++ {
			members[x] = int32(gr.rank(x, y))
		}
		out[y] = g.b.AddComm(members)
	}
	return out
}

func (g *gen) colComms(gr grid2) []trace.CommID {
	out := make([]trace.CommID, gr.nx)
	for x := 0; x < gr.nx; x++ {
		members := make([]int32, gr.ny)
		for y := 0; y < gr.ny; y++ {
			members[y] = int32(gr.rank(x, y))
		}
		out[x] = g.b.AddComm(members)
	}
	return out
}
