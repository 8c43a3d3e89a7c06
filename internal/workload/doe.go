package workload

import (
	"hpctradeoff/internal/trace"
)

// DOE DesignForward / co-design center application generators.

// pairExchange emits a symmetric nonblocking exchange over the given
// unordered pairs: both endpoints irecv+isend, then waitall. sizeOf
// must be symmetric in its arguments.
func (g *gen) pairExchange(pairs [][2]int, tag int32, sizeOf func(a, b int) int64) {
	reqs := make([][]int32, g.n)
	for _, p := range pairs {
		a, b := p[0], p[1]
		sz := sizeOf(a, b)
		reqs[a] = append(reqs[a], g.b.Irecv(a, int32(b), tag, sz, trace.CommWorld))
		reqs[b] = append(reqs[b], g.b.Irecv(b, int32(a), tag, sz, trace.CommWorld))
	}
	for _, p := range pairs {
		a, b := p[0], p[1]
		sz := sizeOf(a, b)
		reqs[a] = append(reqs[a], g.b.Isend(a, int32(b), tag, sz, trace.CommWorld))
		reqs[b] = append(reqs[b], g.b.Isend(b, int32(a), tag, sz, trace.CommWorld))
	}
	for r := 0; r < g.n; r++ {
		if len(reqs[r]) > 0 {
			g.b.Waitall(r, reqs[r]...)
		}
	}
}

// randomPairs draws approximately degree partners per rank,
// deduplicated, seeded by the generation RNG.
func (g *gen) randomPairs(degree int) [][2]int {
	seen := map[[2]int]bool{}
	var out [][2]int
	for r := 0; r < g.n; r++ {
		for k := 0; k < degree; k++ {
			p := g.rng.Intn(g.n)
			if p == r {
				continue
			}
			a, b := min(r, p), max(r, p)
			key := [2]int{a, b}
			if !seen[key] {
				seen[key] = true
				out = append(out, key)
			}
		}
	}
	return out
}

// genBigFFT models the DesignForward Big FFT kernel: a 2-D pencil
// decomposition performing row-communicator and column-communicator
// all-to-alls each step (the two transposes of a 3-D FFT). The
// sub-communicator grouping is what SST/Macro 3.0's flow model cannot
// replay.
func genBigFFT(g *gen) error {
	grid := newGrid2(g.n)
	rows := g.rowComms(grid)
	cols := g.colComms(grid)
	cells := 60.0 * 60 * 60 * g.scale
	rowPair := int64(cells * 16 / float64(g.n) / float64(grid.nx))
	colPair := int64(cells * 16 / float64(g.n) / float64(grid.ny))
	for it := 0; it < g.iters; it++ {
		g.computeAll(g.strongCompute(ms(2.4)), 0.02)
		for r := 0; r < g.n; r++ {
			_, y := grid.coords(r)
			g.b.Collective(r, trace.OpAlltoall, rows[y], 0, max(rowPair, 64))
		}
		g.computeAll(g.strongCompute(ms(1.2)), 0.02)
		for r := 0; r < g.n; r++ {
			x, _ := grid.coords(r)
			g.b.Collective(r, trace.OpAlltoall, cols[x], 0, max(colPair, 64))
		}
	}
	return nil
}

// genCR models the Crystal Router kernel: staged irregular routing —
// each stage exchanges variable-sized bundles with hypercube partners
// plus a handful of random long-range partners. Intensive and
// irregular; the paper singles it out (with FB) as benefiting from
// detailed simulation.
func genCR(g *gen) error {
	scaleDown := cbrt(64 / float64(g.n))
	base := int64(float64(26<<10) * g.scale * scaleDown * scaleDown * scaleDown * scaleDown) // (64/n)^{4/3}
	for it := 0; it < g.iters; it++ {
		g.computeAll(g.strongCompute(ms(1.6)), 0.05)
		// Hypercube stages.
		for d := 0; d < 3; d++ {
			mask := 1 << (uint(it+d) % uint(maxBit(g.n)))
			var pairs [][2]int
			for r := 0; r < g.n; r++ {
				p := r ^ mask
				if p < g.n && r < p {
					pairs = append(pairs, [2]int{r, p})
				}
			}
			g.pairExchange(pairs, int32(70+d), func(a, b int) int64 {
				f := 0.3 + 1.4*hashUnit(int64(a*g.n+b), g.p.Seed, int64(it*4+d))
				return int64(float64(base) * f)
			})
		}
		// Random long-range scatter.
		pairs := g.randomPairs(2)
		g.pairExchange(pairs, 79, func(a, b int) int64 {
			f := 0.1 + 0.9*hashUnit(int64(a*g.n+b), g.p.Seed, int64(it))
			return int64(float64(base) * f / 2)
		})
	}
	return nil
}

func maxBit(n int) int {
	b := 0
	for 1<<(b+1) < n {
		b++
	}
	return b + 1
}

// hashUnit maps (a, seed, salt) to a deterministic uniform in [0,1).
func hashUnit(a, seed, salt int64) float64 {
	x := uint64(a)*0x9e3779b97f4a7c15 ^ uint64(seed)*0xbf58476d1ce4e5b9 ^ uint64(salt)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return float64(x>>11) / float64(1<<53)
}

// genAMG models the AMG mini-app: multilevel halo exchanges with
// shrinking payloads plus frequent small allreduces (coarse-level
// solves are latency-bound).
func genAMG(g *gen) error {
	grid := newGrid3(g.n)
	base := g.weakFaceBytes(6000, 1)
	for it := 0; it < g.iters; it++ {
		for level := 0; level < 5; level++ {
			g.computeAll(g.weakCompute(ms(1.2)).Scale(1/float64(int(1)<<level)), 0.04)
			sz := base >> (2 * level)
			if sz < 64 {
				sz = 64
			}
			g.haloExchange(grid.faceNeighbors, int32(80+level), func(r, nbr int) int64 { return sz })
			g.collectiveAll(trace.OpAllreduce, 0, 8)
		}
		g.collectiveAll(trace.OpAllreduce, 0, 8)
	}
	return nil
}

// genMiniFE models MiniFE: a conjugate-gradient solve on an FE mesh —
// one 6-face halo plus three scalar allreduces (dot products) per
// iteration, with assembly compute up front.
func genMiniFE(g *gen) error {
	grid := newGrid3(g.n)
	bytes := g.weakFaceBytes(46000, 1)
	g.computeAll(g.weakCompute(ms(14)), 0.03) // assembly
	for it := 0; it < g.iters; it++ {
		g.computeAll(g.weakCompute(ms(2.1)), 0.03)
		g.haloExchange(grid.faceNeighbors, 90, func(r, nbr int) int64 { return bytes })
		for k := 0; k < 3; k++ {
			g.collectiveAll(trace.OpAllreduce, 0, 8)
		}
	}
	return nil
}

// genLULESH models LULESH: a 26-neighbor ghost exchange (faces carry
// full planes, edges lines, corners points), one timestep allreduce,
// and heavy compute with mild built-in imbalance.
func genLULESH(g *gen) error {
	grid := newGrid3(g.n)
	face := g.weakFaceBytes(27000, 2)
	skew := g.skewProfile(0.08)
	for it := 0; it < g.iters; it++ {
		g.computeSkewed(g.weakCompute(ms(7.5)), skew)
		g.haloExchange(grid.allNeighbors, 100, func(r, nbr int) int64 {
			// Classify the neighbor as face, edge, or corner by how
			// many coordinates differ.
			ax, ay, az := grid.coords(r)
			bx, by, bz := grid.coords(nbr)
			diff := 0
			if ax != bx {
				diff++
			}
			if ay != by {
				diff++
			}
			if az != bz {
				diff++
			}
			switch diff {
			case 1:
				return face
			case 2:
				return max(face/32, 256)
			default:
				return 128
			}
		})
		g.collectiveAll(trace.OpAllreduce, 0, 8)
	}
	return nil
}

// genCNS models the CNS compressible Navier-Stokes mini-app: wide
// ghost zones (4 layers, 5 components) make the 6-face halo
// bandwidth-hungry.
func genCNS(g *gen) error {
	grid := newGrid3(g.n)
	bytes := g.weakFaceBytes(33000, 3)
	for it := 0; it < g.iters; it++ {
		g.computeAll(g.weakCompute(ms(5.4)), 0.03)
		g.haloExchange(grid.faceNeighbors, 110, func(r, nbr int) int64 { return bytes })
		g.computeAll(g.weakCompute(ms(2.2)), 0.03)
		g.collectiveAll(trace.OpReduce, 0, 40)
	}
	return nil
}

// genCMC models the CMC Monte Carlo mini-app: long, strongly
// imbalanced compute phases with light particle migration to a few
// random partners and a tally allreduce. Load-imbalance-bound.
func genCMC(g *gen) error {
	skew := g.skewProfile(0.30)
	for it := 0; it < g.iters; it++ {
		g.computeSkewed(g.weakCompute(ms(16)), skew)
		pairs := g.randomPairs(2)
		g.pairExchange(pairs, int32(120+it%4), func(a, b int) int64 {
			return 2048 + int64(38*1024*hashUnit(int64(a*g.n+b), g.p.Seed, int64(it)))
		})
		g.collectiveAll(trace.OpAllreduce, 0, 64)
	}
	return nil
}

// genNekbone models Nekbone: a spectral-element CG loop — small
// nearest-neighbor gather/scatter halos plus two scalar allreduces per
// iteration. Latency-leaning.
func genNekbone(g *gen) error {
	grid := newGrid3(g.n)
	bytes := max(g.weakFaceBytes(4100, 1)/2, 512)
	for it := 0; it < g.iters; it++ {
		g.computeAll(g.weakCompute(ms(1.7)), 0.02)
		g.haloExchange(grid.faceNeighbors, 130, func(r, nbr int) int64 { return bytes })
		g.collectiveAll(trace.OpAllreduce, 0, 8)
		g.collectiveAll(trace.OpAllreduce, 0, 8)
	}
	return nil
}

// genMultiGrid models the full MultiGrid application: like NPB MG but
// deeper cycles whose coarse levels run on shrinking sub-communicators
// (ranks idle below their level), exercising communicator grouping.
func genMultiGrid(g *gen) error {
	grid := newGrid3(g.n)
	base := g.weakFaceBytes(64000, 1)
	// Build level communicators: level L contains ranks 0..n/2^L-1.
	var comms []trace.CommID
	active := g.n
	for level := 0; level < 4 && active >= 2; level++ {
		members := make([]int32, active)
		for i := range members {
			members[i] = int32(i)
		}
		comms = append(comms, g.b.AddComm(members))
		active /= 2
	}
	for it := 0; it < g.iters; it++ {
		// Fine level: full halo.
		g.computeAll(g.weakCompute(ms(3.6)), 0.03)
		g.haloExchange(grid.faceNeighbors, 140, func(r, nbr int) int64 { return base })
		// Coarse levels: allreduces on shrinking communicators.
		active := g.n
		for level, comm := range comms {
			sz := base >> (2 * (level + 1))
			if sz < 64 {
				sz = 64
			}
			for r := 0; r < active; r++ {
				g.b.Collective(r, trace.OpAllreduce, comm, 0, sz)
			}
			for r := 0; r < active; r++ {
				g.compute(r, g.weakCompute(ms(0.5)).Scale(1/float64(level+1)), 0.03)
			}
			active /= 2
		}
		g.collectiveAll(trace.OpAllreduce, 0, 8)
	}
	return nil
}

// genFB models FillBoundary (BoxLib/AMReX AMR ghost-cell fill): bursty
// irregular many-to-many exchanges whose partner sets and sizes come
// from the (synthetic) patch layout. Traced with MPI_THREAD_MULTIPLE,
// which the SST/Macro 3.0 models cannot replay.
func genFB(g *gen) error {
	base := int64(float64(6<<10) * g.scale) // weak-scaled patch volume
	grid := newGrid3(g.n)
	for it := 0; it < g.iters; it++ {
		g.computeAll(g.weakCompute(ms(0.9)), 0.06)
		for phase := 0; phase < 2; phase++ {
			// Partner set: 6 structured neighbors + random AMR overlaps.
			var pairs [][2]int
			seen := map[[2]int]bool{}
			add := func(a, b int) {
				if a == b {
					return
				}
				if a > b {
					a, b = b, a
				}
				k := [2]int{a, b}
				if !seen[k] {
					seen[k] = true
					pairs = append(pairs, k)
				}
			}
			for r := 0; r < g.n; r++ {
				for _, nbr := range grid.faceNeighbors(r) {
					add(r, nbr)
				}
			}
			for _, p := range g.randomPairs(2) {
				add(p[0], p[1])
			}
			g.pairExchange(pairs, int32(150+phase), func(a, b int) int64 {
				f := 0.05 + 2.4*hashUnit(int64(a*g.n+b), g.p.Seed, int64(it*2+phase))
				return max(int64(float64(base)*f), 128)
			})
		}
	}
	return nil
}
